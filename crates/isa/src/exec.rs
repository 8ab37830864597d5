//! Functional (architectural) semantics of every operation.
//!
//! [`execute`] computes the architectural effect of one guarded operation:
//! register writes, memory traffic and control flow. Timing is *not*
//! modelled here — that is the job of the `tm3270-core` pipeline simulator,
//! which calls into this module for the architectural state changes.

use crate::cabac::{cabac_decode_step, CabacState};
use crate::op::Op;
use crate::opcode::Opcode;
use crate::reg::{Reg, RegFile};
use crate::value::*;

/// Cache-control operations issued by the store unit (§4, software-visible
/// cache management).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOp {
    /// Allocate a cache line without fetching it (`allocd`).
    Allocate,
    /// Software prefetch of a cache line (`prefd`).
    Prefetch,
    /// Invalidate a cache line without copy-back (`dinvalid`).
    Invalidate,
    /// Copy back and invalidate a cache line (`dflush`).
    Flush,
}

/// Prefetch-unit parameters, one set per memory region (§2.3):
/// `PFn_START_ADDR`, `PFn_END_ADDR` and `PFn_STRIDE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfParam {
    /// `PFn_START_ADDR`.
    Start,
    /// `PFn_END_ADDR`.
    End,
    /// `PFn_STRIDE`.
    Stride,
}

/// A fault raised by operation semantics instead of a panic.
///
/// These surface through [`execute`]'s `Result` so a corrupted or
/// adversarial program degrades into a typed error the caller can report,
/// never a crash of the simulator itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// A memory access violated the alignment policy of a strict memory.
    MisalignedAccess {
        /// Effective byte address of the access.
        addr: u32,
        /// Access width in bytes.
        size: u32,
    },
    /// A memory access fell outside the bounds of a strict memory.
    OutOfBoundsAccess {
        /// Effective byte address of the access.
        addr: u32,
        /// Access width in bytes.
        size: u32,
    },
}

impl core::fmt::Display for ExecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExecError::MisalignedAccess { addr, size } => {
                write!(f, "misaligned {size}-byte access at {addr:#010x}")
            }
            ExecError::OutOfBoundsAccess { addr, size } => {
                write!(f, "out-of-bounds {size}-byte access at {addr:#010x}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// The natural alignment required of a `size`-byte access when a memory
/// is configured to enforce alignment.
///
/// The TM3270 data cache architecturally supports non-aligned accesses
/// penalty-free (§4.1), so this is a *diagnostic* policy, not an
/// architectural one: 2- and 4-byte accesses align to their width, the
/// 8-byte `super_ld32r` pair aligns to 4, and the inherently byte-offset
/// `ld_frac8` window (5 bytes) has no requirement.
pub fn required_alignment(size: u32) -> u32 {
    match size {
        2 => 2,
        4 | 8 => 4,
        _ => 1,
    }
}

/// Validates `addr`/`size` against an alignment policy; used by strict
/// memories from their `check_access` hooks.
pub fn check_alignment(addr: u32, size: u32) -> Result<(), ExecError> {
    let align = required_alignment(size);
    if !addr.is_multiple_of(align) {
        return Err(ExecError::MisalignedAccess { addr, size });
    }
    Ok(())
}

/// The data-memory interface seen by operation semantics.
///
/// Implemented by the flat test memory ([`FlatMemory`]) and by the full
/// cache hierarchy in `tm3270-mem`. Accesses may be non-aligned; the
/// TM3270 data cache supports them penalty-free (§4.1).
pub trait DataMemory {
    /// Reads `buf.len()` bytes starting at `addr`.
    fn load_bytes(&mut self, addr: u32, buf: &mut [u8]);
    /// Writes `data` starting at `addr`.
    fn store_bytes(&mut self, addr: u32, data: &[u8]);
    /// Executes a cache-control operation. Default: no-op (flat memories
    /// have no cache).
    fn cache_op(&mut self, _op: CacheOp, _addr: u32) {}
    /// Writes a prefetch-region parameter (memory-mapped IO). Default:
    /// no-op.
    fn write_pf_param(&mut self, _param: PfParam, _region: u8, _value: u32) {}

    /// Validates an upcoming `size`-byte access at `addr`, *before* any
    /// architectural effect. The default is fully permissive (the
    /// TM3270's wrap-around flat address space); strict memories return
    /// [`ExecError::OutOfBoundsAccess`] / [`ExecError::MisalignedAccess`]
    /// here, which [`execute`] propagates without touching state.
    fn check_access(&self, _addr: u32, _size: u32) -> Result<(), ExecError> {
        Ok(())
    }

    /// Little-endian load helper.
    fn load_le(&mut self, addr: u32, bytes: usize) -> u32 {
        let mut buf = [0u8; 4];
        self.load_bytes(addr, &mut buf[..bytes]);
        u32::from_le_bytes(buf)
    }

    /// Little-endian store helper.
    fn store_le(&mut self, addr: u32, bytes: usize, value: u32) {
        let buf = value.to_le_bytes();
        self.store_bytes(addr, &buf[..bytes]);
    }
}

/// Segment granularity of [`FlatMemory`]: 256 KiB. Large enough that
/// segment-crossing accesses are vanishingly rare, small enough that a
/// kernel touching a few hundred kilobytes only ever zeroes a few
/// hundred kilobytes.
const SEG_BYTES: usize = 1 << 18;

/// Page granularity of [`FlatMemory::nonzero_pages`]: 4 KiB, a divisor
/// of `SEG_BYTES`.
const PAGE_BYTES: usize = 1 << 12;

/// A flat byte-array memory for functional simulation and tests.
///
/// Addresses wrap within the memory size (which must be a power of two).
///
/// The backing store is *demand-paged* in 256 KiB segments: untouched
/// address space costs neither allocation nor zeroing, so constructing a
/// machine with the default 16 MB space is O(touched footprint), not
/// O(address space) — the dominant cost of short sweep runs before this
/// layout. Reads from an absent segment return zero without allocating;
/// the first store into a segment materializes it zero-filled.
#[derive(Debug, Clone)]
pub struct FlatMemory {
    segs: Vec<Option<Box<[u8]>>>,
    /// Bytes per segment: `SEG_BYTES`, or the whole size when smaller.
    seg_len: usize,
    seg_shift: u32,
    size: usize,
    mask: u32,
    strict_bounds: bool,
    strict_align: bool,
}

impl FlatMemory {
    /// Creates a zeroed flat memory of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two or is zero. This is a
    /// construction-time configuration invariant (the wrap mask requires
    /// it), not an input-dependent path: program data can never reach it.
    pub fn new(size: usize) -> FlatMemory {
        assert!(size.is_power_of_two(), "memory size must be a power of two");
        let seg_len = size.min(SEG_BYTES);
        FlatMemory {
            segs: vec![None; size / seg_len],
            seg_len,
            seg_shift: seg_len.trailing_zeros(),
            size,
            mask: (size - 1) as u32,
            strict_bounds: false,
            strict_align: false,
        }
    }

    /// Creates a strict flat memory: accesses past `size` return
    /// [`ExecError::OutOfBoundsAccess`] and non-naturally-aligned
    /// accesses return [`ExecError::MisalignedAccess`] instead of
    /// wrapping silently. Used by the fault-injection harness.
    pub fn new_strict(size: usize) -> FlatMemory {
        let mut m = FlatMemory::new(size);
        m.strict_bounds = true;
        m.strict_align = true;
        m
    }

    /// Enables/disables bounds checking on an existing memory.
    pub fn set_strict_bounds(&mut self, on: bool) {
        self.strict_bounds = on;
    }

    /// Enables/disables alignment checking on an existing memory.
    pub fn set_strict_align(&mut self, on: bool) {
        self.strict_align = on;
    }

    /// The memory size in bytes.
    pub fn len(&self) -> usize {
        self.size
    }

    /// Whether the memory is empty (never true for a constructed memory).
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// One byte at in-range offset `a` (absent segments read zero).
    #[inline]
    fn get(&self, a: usize) -> u8 {
        match &self.segs[a >> self.seg_shift] {
            Some(s) => s[a & (self.seg_len - 1)],
            None => 0,
        }
    }

    /// The materialized segment containing offset `a`, zero-filled on
    /// first touch.
    #[inline]
    fn seg_mut(&mut self, a: usize) -> &mut [u8] {
        let seg_len = self.seg_len;
        self.segs[a >> self.seg_shift].get_or_insert_with(|| vec![0u8; seg_len].into_boxed_slice())
    }

    /// Reads `buf.len()` bytes at `addr` without requiring `&mut self`
    /// (same wrap-around semantics as the [`DataMemory`] load).
    pub fn read_into(&self, addr: u32, buf: &mut [u8]) {
        if buf.is_empty() {
            return;
        }
        let a = (addr & self.mask) as usize;
        let end = a + buf.len();
        if end <= self.size && (a >> self.seg_shift) == ((end - 1) >> self.seg_shift) {
            let off = a & (self.seg_len - 1);
            match &self.segs[a >> self.seg_shift] {
                Some(s) => buf.copy_from_slice(&s[off..off + buf.len()]),
                None => buf.fill(0),
            }
        } else {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = self.get(((addr.wrapping_add(i as u32)) & self.mask) as usize);
            }
        }
    }

    /// Writes `data` at `addr` (same wrap-around semantics as the
    /// [`DataMemory`] store).
    pub fn write_from(&mut self, addr: u32, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let a = (addr & self.mask) as usize;
        let end = a + data.len();
        if end <= self.size && (a >> self.seg_shift) == ((end - 1) >> self.seg_shift) {
            let off = a & (self.seg_len - 1);
            self.seg_mut(a)[off..off + data.len()].copy_from_slice(data);
        } else {
            let seg_mask = self.seg_len - 1;
            for (i, &b) in data.iter().enumerate() {
                let a = ((addr.wrapping_add(i as u32)) & self.mask) as usize;
                self.seg_mut(a)[a & seg_mask] = b;
            }
        }
    }

    /// Resets the whole address space to zero, releasing every segment.
    pub fn clear(&mut self) {
        for s in &mut self.segs {
            *s = None;
        }
    }

    /// The snapshot page length: 4 KiB, or the whole memory when it is
    /// smaller than one page.
    pub fn page_len(&self) -> usize {
        self.size.min(PAGE_BYTES)
    }

    /// Every [`page_len`](Self::page_len)-aligned page holding a non-zero
    /// byte, as `(offset, bytes)` in ascending address order. Only
    /// materialized segments are walked, so untouched address space
    /// costs nothing. Snapshots store exactly these pages.
    pub fn nonzero_pages(&self) -> impl Iterator<Item = (usize, &[u8])> + '_ {
        let page = self.page_len();
        self.segs
            .iter()
            .enumerate()
            .filter_map(|(si, seg)| Some((si * self.seg_len, seg.as_deref()?)))
            .flat_map(move |(base, seg)| {
                seg.chunks_exact(page)
                    .enumerate()
                    .map(move |(i, p)| (base + i * page, p))
            })
            .filter(|(_, p)| p.iter().any(|&b| b != 0))
    }

    /// Fixed-width read at `addr`: the compile-time length lets the
    /// common 1/2/4-byte operation accesses compile to single moves
    /// instead of a variable-length copy.
    #[inline]
    pub fn read_fixed<const N: usize>(&self, addr: u32) -> [u8; N] {
        let a = (addr & self.mask) as usize;
        if a + N <= self.size && (a >> self.seg_shift) == ((a + N - 1) >> self.seg_shift) {
            let off = a & (self.seg_len - 1);
            match &self.segs[a >> self.seg_shift] {
                Some(s) => {
                    let mut out = [0u8; N];
                    out.copy_from_slice(&s[off..off + N]);
                    out
                }
                None => [0u8; N],
            }
        } else {
            let mut out = [0u8; N];
            self.read_into(addr, &mut out);
            out
        }
    }

    /// Fixed-width write at `addr` (see [`read_fixed`]
    /// (FlatMemory::read_fixed)).
    #[inline]
    pub fn write_fixed<const N: usize>(&mut self, addr: u32, data: [u8; N]) {
        let a = (addr & self.mask) as usize;
        if a + N <= self.size && (a >> self.seg_shift) == ((a + N - 1) >> self.seg_shift) {
            let off = a & (self.seg_len - 1);
            self.seg_mut(a)[off..off + N].copy_from_slice(&data);
        } else {
            self.write_from(addr, &data);
        }
    }

    /// Materializes the full contents as one contiguous vector (test and
    /// debugging helper; O(address space)).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.size];
        for (si, seg) in self.segs.iter().enumerate() {
            if let Some(s) = seg {
                out[si * self.seg_len..(si + 1) * self.seg_len].copy_from_slice(s);
            }
        }
        out
    }
}

impl DataMemory for FlatMemory {
    fn load_bytes(&mut self, addr: u32, buf: &mut [u8]) {
        self.read_into(addr, buf);
    }

    fn store_bytes(&mut self, addr: u32, data: &[u8]) {
        self.write_from(addr, data);
    }

    fn check_access(&self, addr: u32, size: u32) -> Result<(), ExecError> {
        if self.strict_bounds && u64::from(addr) + u64::from(size) > self.size as u64 {
            return Err(ExecError::OutOfBoundsAccess { addr, size });
        }
        if self.strict_align {
            check_alignment(addr, size)?;
        }
        Ok(())
    }

    fn load_le(&mut self, addr: u32, bytes: usize) -> u32 {
        match bytes {
            1 => u32::from(self.read_fixed::<1>(addr)[0]),
            2 => u32::from(u16::from_le_bytes(self.read_fixed::<2>(addr))),
            4 => u32::from_le_bytes(self.read_fixed::<4>(addr)),
            _ => {
                let mut buf = [0u8; 4];
                self.read_into(addr, &mut buf[..bytes]);
                u32::from_le_bytes(buf)
            }
        }
    }

    fn store_le(&mut self, addr: u32, bytes: usize, value: u32) {
        let buf = value.to_le_bytes();
        match bytes {
            1 => self.write_fixed::<1>(addr, [buf[0]]),
            2 => self.write_fixed::<2>(addr, [buf[0], buf[1]]),
            4 => self.write_fixed::<4>(addr, buf),
            _ => self.write_from(addr, &buf[..bytes]),
        }
    }
}

/// The architectural effect of executing one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecResult {
    /// Register writes produced (up to two for two-slot operations).
    pub writes: [Option<(Reg, u32)>; 2],
    /// Target VLIW-instruction index if the operation is a taken branch.
    pub branch_target: Option<u32>,
    /// Whether the guard allowed the operation to take effect.
    pub executed: bool,
}

impl ExecResult {
    fn none() -> ExecResult {
        ExecResult::default()
    }

    fn one(dst: Reg, v: u32) -> ExecResult {
        ExecResult {
            writes: [Some((dst, v)), None],
            executed: true,
            ..ExecResult::default()
        }
    }

    fn two(d1: Reg, v1: u32, d2: Reg, v2: u32) -> ExecResult {
        ExecResult {
            writes: [Some((d1, v1)), Some((d2, v2))],
            executed: true,
            ..ExecResult::default()
        }
    }

    fn effect_only() -> ExecResult {
        ExecResult {
            executed: true,
            ..ExecResult::default()
        }
    }

    fn branch(target: u32) -> ExecResult {
        ExecResult {
            branch_target: Some(target),
            executed: true,
            ..ExecResult::default()
        }
    }

    /// Iterates over the register writes.
    pub fn write_iter(&self) -> impl Iterator<Item = (Reg, u32)> + '_ {
        self.writes.iter().filter_map(|w| *w)
    }
}

#[inline]
fn f(v: u32) -> f32 {
    f32::from_bits(v)
}

#[inline]
fn fb(v: f32) -> u32 {
    v.to_bits()
}

#[inline]
fn b32(c: bool) -> u32 {
    u32::from(c)
}

/// The destination value of `LD_FRAC8` given its five loaded bytes and
/// the fraction operand: four overlapping [`interp_frac16`]
/// interpolations packed little-endian ([`pack_quad8`]). Shared between
/// [`execute`] and the fused engine's direct-dispatch path so the
/// collapsed-load semantics (§2.2.2) have exactly one definition.
#[inline]
pub fn ld_frac8_value(data: [u8; 5], frac: u32) -> u32 {
    pack_quad8([
        interp_frac16(data[0], data[1], frac),
        interp_frac16(data[1], data[2], frac),
        interp_frac16(data[2], data[3], frac),
        interp_frac16(data[3], data[4], frac),
    ])
}

/// The two destination words of `SUPER_LD32R` given its eight loaded
/// bytes: big-endian byte placement per Table 2. Shared between
/// [`execute`] and the fused engine's direct-dispatch path.
#[inline]
pub fn super_ld32_words(buf: [u8; 8]) -> (u32, u32) {
    (
        u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]),
        u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
    )
}

/// Executes one operation against the register file and data memory.
///
/// The guard is evaluated first: a false guard suppresses all effects
/// (including memory accesses), with the *architected* exception of the
/// branch-on-false operations `jmpf`.
///
/// Branch targets are VLIW-instruction indices; the pipeline applies the
/// architectural jump delay slots (§3).
///
/// Memory operations validate their access through
/// [`DataMemory::check_access`] before any architectural effect; a
/// strict memory turns wild addresses into [`ExecError`]s here instead
/// of silently wrapping. Non-memory operations are infallible.
pub fn execute<M: DataMemory + ?Sized>(
    op: &Op,
    rf: &RegFile,
    mem: &mut M,
) -> Result<ExecResult, ExecError> {
    use Opcode::*;

    let g = rf.guard(op.guard);
    // `jmpf` branches when its guard is FALSE; every other operation is
    // suppressed by a false guard.
    if !g && op.opcode != Jmpf {
        return Ok(ExecResult::none());
    }

    let s = |i: usize| rf.read(op.srcs[i]);
    let d = |i: usize| op.dsts[i];
    let imm = op.imm;

    Ok(match op.opcode {
        // --- constants / immediate arithmetic ---
        Iimm => ExecResult::one(d(0), imm as u32),
        Iaddi => ExecResult::one(d(0), s(0).wrapping_add(imm as u32)),
        Isubi => ExecResult::one(d(0), s(0).wrapping_sub(imm as u32)),
        // `iori` ORs in a 12-bit zero-extended immediate; it exists so the
        // assembler can synthesize 32-bit constants in two operations.
        Iori => ExecResult::one(d(0), s(0) | (imm as u32 & 0xfff)),

        // --- integer ALU ---
        Iadd => ExecResult::one(d(0), s(0).wrapping_add(s(1))),
        Isub => ExecResult::one(d(0), s(0).wrapping_sub(s(1))),
        Ineg => ExecResult::one(d(0), (s(0) as i32).wrapping_neg() as u32),
        Iabs => ExecResult::one(d(0), (s(0) as i32).wrapping_abs() as u32),
        Iand => ExecResult::one(d(0), s(0) & s(1)),
        Ior => ExecResult::one(d(0), s(0) | s(1)),
        Ixor => ExecResult::one(d(0), s(0) ^ s(1)),
        Bitinv => ExecResult::one(d(0), !s(0)),
        Bitandinv => ExecResult::one(d(0), s(0) & !s(1)),
        Sex8 => ExecResult::one(d(0), sign_extend(s(0), 8)),
        Sex16 => ExecResult::one(d(0), sign_extend(s(0), 16)),
        Zex8 => ExecResult::one(d(0), s(0) & 0xff),
        Zex16 => ExecResult::one(d(0), s(0) & 0xffff),
        Imin => ExecResult::one(d(0), (s(0) as i32).min(s(1) as i32) as u32),
        Imax => ExecResult::one(d(0), (s(0) as i32).max(s(1) as i32) as u32),
        Umin => ExecResult::one(d(0), s(0).min(s(1))),
        Umax => ExecResult::one(d(0), s(0).max(s(1))),
        Ieql => ExecResult::one(d(0), b32(s(0) == s(1))),
        Ineq => ExecResult::one(d(0), b32(s(0) != s(1))),
        Igtr => ExecResult::one(d(0), b32((s(0) as i32) > (s(1) as i32))),
        Igeq => ExecResult::one(d(0), b32((s(0) as i32) >= (s(1) as i32))),
        Iles => ExecResult::one(d(0), b32((s(0) as i32) < (s(1) as i32))),
        Ileq => ExecResult::one(d(0), b32((s(0) as i32) <= (s(1) as i32))),
        Ugtr => ExecResult::one(d(0), b32(s(0) > s(1))),
        Ugeq => ExecResult::one(d(0), b32(s(0) >= s(1))),
        Ules => ExecResult::one(d(0), b32(s(0) < s(1))),
        Uleq => ExecResult::one(d(0), b32(s(0) <= s(1))),
        Ieqli => ExecResult::one(d(0), b32(s(0) as i32 == imm)),
        Igtri => ExecResult::one(d(0), b32(s(0) as i32 > imm)),
        Ilesi => ExecResult::one(d(0), b32((s(0) as i32) < imm)),
        Inonzero => ExecResult::one(d(0), b32(s(0) != 0)),
        Izero => ExecResult::one(d(0), b32(s(0) == 0)),
        Pack16Lsb => ExecResult::one(d(0), (s(0) << 16) | (s(1) & 0xffff)),
        Pack16Msb => ExecResult::one(d(0), (s(0) & 0xffff_0000) | (s(1) >> 16)),
        PackBytes => ExecResult::one(d(0), ((s(0) & 0xff) << 8) | (s(1) & 0xff)),
        MergeLsb => {
            let a = quad8(s(0));
            let b = quad8(s(1));
            ExecResult::one(d(0), pack_quad8([a[2], b[2], a[3], b[3]]))
        }
        MergeMsb => {
            let a = quad8(s(0));
            let b = quad8(s(1));
            ExecResult::one(d(0), pack_quad8([a[0], b[0], a[1], b[1]]))
        }
        Ubytesel => {
            let idx = (s(1) & 3) as usize;
            // Byte 0 is the least significant byte.
            ExecResult::one(d(0), (s(0) >> (8 * idx)) & 0xff)
        }
        MergeDual16Lsb => {
            let a = quad8(s(0));
            let b = quad8(s(1));
            // Low byte of each halfword of a, then of b.
            ExecResult::one(d(0), pack_quad8([a[1], a[3], b[1], b[3]]))
        }

        // --- shifter ---
        Asl => ExecResult::one(d(0), s(0).wrapping_shl(s(1) & 31)),
        Asr => ExecResult::one(d(0), ((s(0) as i32).wrapping_shr(s(1) & 31)) as u32),
        Lsr => ExecResult::one(d(0), s(0).wrapping_shr(s(1) & 31)),
        Rol => ExecResult::one(d(0), s(0).rotate_left(s(1) & 31)),
        Asli => ExecResult::one(d(0), s(0).wrapping_shl(imm as u32 & 31)),
        Asri => ExecResult::one(d(0), ((s(0) as i32).wrapping_shr(imm as u32 & 31)) as u32),
        Lsri => ExecResult::one(d(0), s(0).wrapping_shr(imm as u32 & 31)),
        Roli => ExecResult::one(d(0), s(0).rotate_left(imm as u32 & 31)),
        Funshift1 | Funshift2 | Funshift3 => {
            let n = match op.opcode {
                Funshift1 => 1u32,
                Funshift2 => 2,
                _ => 3,
            };
            let cat = (u64::from(s(0)) << 32) | u64::from(s(1));
            ExecResult::one(d(0), (cat >> (32 - 8 * n)) as u32)
        }

        // --- saturating SIMD ALU ---
        Dspiadd => ExecResult::one(
            d(0),
            clip_to_i32(i64::from(s(0) as i32) + i64::from(s(1) as i32)) as u32,
        ),
        Dspisub => ExecResult::one(
            d(0),
            clip_to_i32(i64::from(s(0) as i32) - i64::from(s(1) as i32)) as u32,
        ),
        Dspiabs => ExecResult::one(d(0), clip_to_i32((i64::from(s(0) as i32)).abs()) as u32),
        Dspidualadd | Dspidualsub => {
            let (ah, al) = dual16(s(0));
            let (bh, bl) = dual16(s(1));
            let f = |a: u16, b: u16| -> u16 {
                let (a, b) = (i32::from(a as i16), i32::from(b as i16));
                let v = if op.opcode == Dspidualadd {
                    a + b
                } else {
                    a - b
                };
                clip_to_i16(v) as u16
            };
            ExecResult::one(d(0), pack_dual16(f(ah, bh), f(al, bl)))
        }
        Dspidualabs => {
            let (h, l) = dual16(s(0));
            let f = |a: u16| clip_to_i16(i32::from(a as i16).abs()) as u16;
            ExecResult::one(d(0), pack_dual16(f(h), f(l)))
        }
        Quadavg => {
            let a = quad8(s(0));
            let b = quad8(s(1));
            let mut out = [0u8; 4];
            for i in 0..4 {
                out[i] = avg_u8(a[i], b[i]);
            }
            ExecResult::one(d(0), pack_quad8(out))
        }
        Quadumin | Quadumax => {
            let a = quad8(s(0));
            let b = quad8(s(1));
            let mut out = [0u8; 4];
            for i in 0..4 {
                out[i] = if op.opcode == Quadumin {
                    a[i].min(b[i])
                } else {
                    a[i].max(b[i])
                };
            }
            ExecResult::one(d(0), pack_quad8(out))
        }
        Dualiclipi => {
            let (h, l) = dual16(s(0));
            let n = imm.clamp(0, 15) as u32;
            let lo = -(1i32 << n);
            let hi = (1i32 << n) - 1;
            let f = |a: u16| (i32::from(a as i16).clamp(lo, hi) as i16) as u16;
            ExecResult::one(d(0), pack_dual16(f(h), f(l)))
        }
        Iclipi => {
            let n = imm.clamp(0, 30) as u32;
            let v = (s(0) as i32).clamp(-(1i32 << n), (1i32 << n) - 1);
            ExecResult::one(d(0), v as u32)
        }
        Uclipi => {
            let n = imm.clamp(0, 31) as u32;
            let v = (s(0) as i32).clamp(0, ((1u32 << n) - 1) as i32);
            ExecResult::one(d(0), v as u32)
        }
        Ume8uu => {
            let a = quad8(s(0));
            let b = quad8(s(1));
            let sad: u32 = (0..4)
                .map(|i| (i32::from(a[i]) - i32::from(b[i])).unsigned_abs())
                .sum();
            ExecResult::one(d(0), sad)
        }
        Ume8ii => {
            let a = quad8(s(0));
            let b = quad8(s(1));
            let sad: u32 = (0..4)
                .map(|i| (i32::from(a[i] as i8) - i32::from(b[i] as i8)).unsigned_abs())
                .sum();
            ExecResult::one(d(0), sad)
        }

        // --- multiplier ---
        Imul => ExecResult::one(d(0), (s(0) as i32).wrapping_mul(s(1) as i32) as u32),
        Umul => ExecResult::one(d(0), s(0).wrapping_mul(s(1))),
        Imulm => ExecResult::one(
            d(0),
            ((i64::from(s(0) as i32) * i64::from(s(1) as i32)) >> 32) as u32,
        ),
        Umulm => ExecResult::one(d(0), ((u64::from(s(0)) * u64::from(s(1))) >> 32) as u32),
        Dspimul => ExecResult::one(
            d(0),
            clip_to_i32(i64::from(s(0) as i32) * i64::from(s(1) as i32)) as u32,
        ),
        Dspidualmul => {
            let (ah, al) = dual16(s(0));
            let (bh, bl) = dual16(s(1));
            let f = |a: u16, b: u16| {
                clip_to_i16(i32::from(a as i16).wrapping_mul(i32::from(b as i16))) as u16
            };
            ExecResult::one(d(0), pack_dual16(f(ah, bh), f(al, bl)))
        }
        Ifir16 => {
            let (ah, al) = dual16(s(0));
            let (bh, bl) = dual16(s(1));
            let v = i32::from(ah as i16).wrapping_mul(i32::from(bh as i16))
                + i32::from(al as i16).wrapping_mul(i32::from(bl as i16));
            ExecResult::one(d(0), v as u32)
        }
        Ufir16 => {
            let (ah, al) = dual16(s(0));
            let (bh, bl) = dual16(s(1));
            let v = u32::from(ah)
                .wrapping_mul(u32::from(bh))
                .wrapping_add(u32::from(al).wrapping_mul(u32::from(bl)));
            ExecResult::one(d(0), v)
        }
        Ifir8ii | Ifir8ui | Ufir8uu => {
            let a = quad8(s(0));
            let b = quad8(s(1));
            let mut acc: i64 = 0;
            for i in 0..4 {
                let x = match op.opcode {
                    Ufir8uu => i64::from(a[i]),
                    Ifir8ui => i64::from(a[i]),
                    _ => i64::from(a[i] as i8),
                };
                let y = match op.opcode {
                    Ufir8uu => i64::from(b[i]),
                    _ => i64::from(b[i] as i8),
                };
                acc += x * y;
            }
            ExecResult::one(d(0), acc as u32)
        }
        Quadumulmsb => {
            let a = quad8(s(0));
            let b = quad8(s(1));
            let mut out = [0u8; 4];
            for i in 0..4 {
                out[i] = ((u16::from(a[i]) * u16::from(b[i])) >> 8) as u8;
            }
            ExecResult::one(d(0), pack_quad8(out))
        }
        Fmul => ExecResult::one(d(0), fb(f(s(0)) * f(s(1)))),

        // --- floating point ---
        Fadd => ExecResult::one(d(0), fb(f(s(0)) + f(s(1)))),
        Fsub => ExecResult::one(d(0), fb(f(s(0)) - f(s(1)))),
        Fabsval => ExecResult::one(d(0), fb(f(s(0)).abs())),
        Ifloat => ExecResult::one(d(0), fb(s(0) as i32 as f32)),
        Ufloat => ExecResult::one(d(0), fb(s(0) as f32)),
        Ifixrz => {
            let v = f(s(0));
            let v = if v.is_nan() {
                0
            } else {
                v.clamp(i32::MIN as f32, i32::MAX as f32) as i32
            };
            ExecResult::one(d(0), v as u32)
        }
        Ufixrz => {
            let v = f(s(0));
            let v = if v.is_nan() {
                0
            } else {
                v.clamp(0.0, u32::MAX as f32) as u32
            };
            ExecResult::one(d(0), v)
        }
        Fgtr => ExecResult::one(d(0), b32(f(s(0)) > f(s(1)))),
        Fgeq => ExecResult::one(d(0), b32(f(s(0)) >= f(s(1)))),
        Feql => ExecResult::one(d(0), b32(f(s(0)) == f(s(1)))),
        Fneq => ExecResult::one(d(0), b32(f(s(0)) != f(s(1)))),
        Fleq => ExecResult::one(d(0), b32(f(s(0)) <= f(s(1)))),
        Fles => ExecResult::one(d(0), b32(f(s(0)) < f(s(1)))),
        Fsign => {
            let v = f(s(0));
            let sign = if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                0.0
            };
            ExecResult::one(d(0), fb(sign))
        }
        Fdiv => ExecResult::one(d(0), fb(f(s(0)) / f(s(1)))),
        Fsqrt => ExecResult::one(d(0), fb(f(s(0)).sqrt())),

        // --- branches (targets are VLIW instruction indices) ---
        Jmpt => ExecResult::branch(imm as u32),
        Jmpf => {
            if g {
                ExecResult::none()
            } else {
                ExecResult::branch(imm as u32)
            }
        }
        Jmpi => ExecResult::branch(imm as u32),
        Ijmpt | Ijmpi => ExecResult::branch(s(0)),

        // --- loads (little-endian unless Table 2 dictates otherwise) ---
        Ld8d => {
            let addr = s(0).wrapping_add(imm as u32);
            mem.check_access(addr, 1)?;
            ExecResult::one(d(0), sign_extend(mem.load_le(addr, 1), 8))
        }
        Uld8d => {
            let addr = s(0).wrapping_add(imm as u32);
            mem.check_access(addr, 1)?;
            ExecResult::one(d(0), mem.load_le(addr, 1))
        }
        Ld16d => {
            let addr = s(0).wrapping_add(imm as u32);
            mem.check_access(addr, 2)?;
            ExecResult::one(d(0), sign_extend(mem.load_le(addr, 2), 16))
        }
        Uld16d => {
            let addr = s(0).wrapping_add(imm as u32);
            mem.check_access(addr, 2)?;
            ExecResult::one(d(0), mem.load_le(addr, 2))
        }
        Ld32d => {
            let addr = s(0).wrapping_add(imm as u32);
            mem.check_access(addr, 4)?;
            ExecResult::one(d(0), mem.load_le(addr, 4))
        }
        Ld8r => {
            let addr = s(0).wrapping_add(s(1));
            mem.check_access(addr, 1)?;
            ExecResult::one(d(0), sign_extend(mem.load_le(addr, 1), 8))
        }
        Uld8r => {
            let addr = s(0).wrapping_add(s(1));
            mem.check_access(addr, 1)?;
            ExecResult::one(d(0), mem.load_le(addr, 1))
        }
        Ld16r => {
            let addr = s(0).wrapping_add(s(1));
            mem.check_access(addr, 2)?;
            ExecResult::one(d(0), sign_extend(mem.load_le(addr, 2), 16))
        }
        Uld16r => {
            let addr = s(0).wrapping_add(s(1));
            mem.check_access(addr, 2)?;
            ExecResult::one(d(0), mem.load_le(addr, 2))
        }
        Ld32r => {
            let addr = s(0).wrapping_add(s(1));
            mem.check_access(addr, 4)?;
            ExecResult::one(d(0), mem.load_le(addr, 4))
        }

        // --- stores and cache control ---
        St8d => {
            let addr = s(0).wrapping_add(imm as u32);
            mem.check_access(addr, 1)?;
            mem.store_le(addr, 1, s(1));
            ExecResult::effect_only()
        }
        St16d => {
            let addr = s(0).wrapping_add(imm as u32);
            mem.check_access(addr, 2)?;
            mem.store_le(addr, 2, s(1));
            ExecResult::effect_only()
        }
        St32d => {
            let addr = s(0).wrapping_add(imm as u32);
            mem.check_access(addr, 4)?;
            mem.store_le(addr, 4, s(1));
            ExecResult::effect_only()
        }
        Allocd => {
            mem.cache_op(CacheOp::Allocate, s(0).wrapping_add(imm as u32));
            ExecResult::effect_only()
        }
        Prefd => {
            mem.cache_op(CacheOp::Prefetch, s(0).wrapping_add(imm as u32));
            ExecResult::effect_only()
        }
        Dinvalid => {
            mem.cache_op(CacheOp::Invalidate, s(0).wrapping_add(imm as u32));
            ExecResult::effect_only()
        }
        Dflush => {
            mem.cache_op(CacheOp::Flush, s(0).wrapping_add(imm as u32));
            ExecResult::effect_only()
        }
        StPfStart => {
            mem.write_pf_param(PfParam::Start, (imm & 3) as u8, s(0));
            ExecResult::effect_only()
        }
        StPfEnd => {
            mem.write_pf_param(PfParam::End, (imm & 3) as u8, s(0));
            ExecResult::effect_only()
        }
        StPfStride => {
            mem.write_pf_param(PfParam::Stride, (imm & 3) as u8, s(0));
            ExecResult::effect_only()
        }

        // --- collapsed load with interpolation (Table 2) ---
        LdFrac8 => {
            let mut data = [0u8; 5];
            mem.check_access(s(0), 5)?;
            mem.load_bytes(s(0), &mut data);
            ExecResult::one(d(0), ld_frac8_value(data, s(1)))
        }

        // --- two-slot operations (Table 2) ---
        SuperDualimix => {
            let hi = |v: u32| i64::from((v >> 16) as u16 as i16);
            let lo = |v: u32| i64::from(v as u16 as i16);
            let t1 = hi(s(0)) * hi(s(1)) + hi(s(2)) * hi(s(3));
            let t2 = lo(s(0)) * lo(s(1)) + lo(s(2)) * lo(s(3));
            ExecResult::two(d(0), clip_to_i32(t1) as u32, d(1), clip_to_i32(t2) as u32)
        }
        SuperLd32r => {
            // Table 2: big-endian byte placement from address rsrc3+rsrc4.
            let addr = s(0).wrapping_add(s(1));
            mem.check_access(addr, 8)?;
            let mut buf = [0u8; 8];
            mem.load_bytes(addr, &mut buf);
            let (w1, w2) = super_ld32_words(buf);
            ExecResult::two(d(0), w1, d(1), w2)
        }
        SuperCabacCtx => {
            // rsrc1 = DUAL16(value, range), rsrc2 = stream_bit_position,
            // rsrc3 = stream_data, rsrc4 = DUAL16(state, mps).
            let (value, range) = dual16(s(0));
            let (state, mps) = dual16(s(3));
            let step = cabac_decode_step(
                CabacState {
                    value,
                    range,
                    // Table 2: state is a 6-bit field of the DUAL16 operand.
                    state: (state & 0x3f) as u8,
                    mps: mps & 1 == 1,
                },
                s(2),
                s(1),
            );
            ExecResult::two(
                d(0),
                pack_dual16(step.next.value, step.next.range),
                d(1),
                pack_dual16(u16::from(step.next.state), u16::from(step.next.mps)),
            )
        }
        SuperCabacStr => {
            // rsrc1 = DUAL16(value, range), rsrc2 = stream_bit_position,
            // rsrc4 = DUAL16(state, mps). stream_data is not needed: the
            // bit decision and renormalization count depend only on the
            // context state (paper, §2.2.3).
            let (value, range) = dual16(s(0));
            let (state, mps) = dual16(s(2));
            let step = cabac_decode_step(
                CabacState {
                    value,
                    range,
                    // Table 2: state is a 6-bit field of the DUAL16 operand.
                    state: (state & 0x3f) as u8,
                    mps: mps & 1 == 1,
                },
                0,
                s(1),
            );
            ExecResult::two(d(0), step.stream_bit_position, d(1), b32(step.bit))
        }
    })
}

/// Signature of a specialized pure operation: `(src0, src1, imm)` in,
/// destination value out. See [`pure_fn`].
pub type PureFn = fn(u32, u32, i32) -> u32;

/// The specialized register-pure evaluator for `opcode`, if it has one.
///
/// An opcode qualifies when its entire architectural effect is a single
/// destination write computed from at most two source registers and the
/// immediate: no memory traffic, no control flow, no second destination
/// and no guard-false side channel (which rules out `jmpf`). For those
/// opcodes the returned function computes exactly the value [`execute`]
/// would put in `writes[0]` for a guard-true operation — the caller owns
/// the guard check and the write-back. A cycle-exact interpreter can
/// dispatch these through a stored function pointer and skip the full
/// opcode match and [`ExecResult`] plumbing; `pure_fns_match_execute`
/// (below, in tests) pins the agreement per opcode on randomized inputs.
pub fn pure_fn(opcode: Opcode) -> Option<PureFn> {
    use Opcode::*;

    Some(match opcode {
        // --- constants / immediate arithmetic ---
        Iimm => |_, _, imm| imm as u32,
        Iaddi => |a, _, imm| a.wrapping_add(imm as u32),
        Isubi => |a, _, imm| a.wrapping_sub(imm as u32),
        Iori => |a, _, imm| a | (imm as u32 & 0xfff),

        // --- integer ALU ---
        Iadd => |a, b, _| a.wrapping_add(b),
        Isub => |a, b, _| a.wrapping_sub(b),
        Ineg => |a, _, _| (a as i32).wrapping_neg() as u32,
        Iabs => |a, _, _| (a as i32).wrapping_abs() as u32,
        Iand => |a, b, _| a & b,
        Ior => |a, b, _| a | b,
        Ixor => |a, b, _| a ^ b,
        Bitinv => |a, _, _| !a,
        Bitandinv => |a, b, _| a & !b,
        Sex8 => |a, _, _| sign_extend(a, 8),
        Sex16 => |a, _, _| sign_extend(a, 16),
        Zex8 => |a, _, _| a & 0xff,
        Zex16 => |a, _, _| a & 0xffff,
        Imin => |a, b, _| (a as i32).min(b as i32) as u32,
        Imax => |a, b, _| (a as i32).max(b as i32) as u32,
        Umin => |a, b, _| a.min(b),
        Umax => |a, b, _| a.max(b),
        Ieql => |a, b, _| b32(a == b),
        Ineq => |a, b, _| b32(a != b),
        Igtr => |a, b, _| b32((a as i32) > (b as i32)),
        Igeq => |a, b, _| b32((a as i32) >= (b as i32)),
        Iles => |a, b, _| b32((a as i32) < (b as i32)),
        Ileq => |a, b, _| b32((a as i32) <= (b as i32)),
        Ugtr => |a, b, _| b32(a > b),
        Ugeq => |a, b, _| b32(a >= b),
        Ules => |a, b, _| b32(a < b),
        Uleq => |a, b, _| b32(a <= b),
        Ieqli => |a, _, imm| b32(a as i32 == imm),
        Igtri => |a, _, imm| b32(a as i32 > imm),
        Ilesi => |a, _, imm| b32((a as i32) < imm),
        Inonzero => |a, _, _| b32(a != 0),
        Izero => |a, _, _| b32(a == 0),
        Pack16Lsb => |a, b, _| (a << 16) | (b & 0xffff),
        Pack16Msb => |a, b, _| (a & 0xffff_0000) | (b >> 16),
        PackBytes => |a, b, _| ((a & 0xff) << 8) | (b & 0xff),
        MergeLsb => |a, b, _| {
            let a = quad8(a);
            let b = quad8(b);
            pack_quad8([a[2], b[2], a[3], b[3]])
        },
        MergeMsb => |a, b, _| {
            let a = quad8(a);
            let b = quad8(b);
            pack_quad8([a[0], b[0], a[1], b[1]])
        },
        Ubytesel => |a, b, _| (a >> (8 * ((b & 3) as usize))) & 0xff,
        MergeDual16Lsb => |a, b, _| {
            let a = quad8(a);
            let b = quad8(b);
            pack_quad8([a[1], a[3], b[1], b[3]])
        },

        // --- shifter ---
        Asl => |a, b, _| a.wrapping_shl(b & 31),
        Asr => |a, b, _| ((a as i32).wrapping_shr(b & 31)) as u32,
        Lsr => |a, b, _| a.wrapping_shr(b & 31),
        Rol => |a, b, _| a.rotate_left(b & 31),
        Asli => |a, _, imm| a.wrapping_shl(imm as u32 & 31),
        Asri => |a, _, imm| ((a as i32).wrapping_shr(imm as u32 & 31)) as u32,
        Lsri => |a, _, imm| a.wrapping_shr(imm as u32 & 31),
        Roli => |a, _, imm| a.rotate_left(imm as u32 & 31),
        Funshift1 => |a, b, _| (((u64::from(a) << 32) | u64::from(b)) >> 24) as u32,
        Funshift2 => |a, b, _| (((u64::from(a) << 32) | u64::from(b)) >> 16) as u32,
        Funshift3 => |a, b, _| (((u64::from(a) << 32) | u64::from(b)) >> 8) as u32,

        // --- saturating SIMD ALU ---
        Dspiadd => |a, b, _| clip_to_i32(i64::from(a as i32) + i64::from(b as i32)) as u32,
        Dspisub => |a, b, _| clip_to_i32(i64::from(a as i32) - i64::from(b as i32)) as u32,
        Dspiabs => |a, _, _| clip_to_i32((i64::from(a as i32)).abs()) as u32,
        Dspidualadd => |a, b, _| {
            let (ah, al) = dual16(a);
            let (bh, bl) = dual16(b);
            let f = |a: u16, b: u16| clip_to_i16(i32::from(a as i16) + i32::from(b as i16)) as u16;
            pack_dual16(f(ah, bh), f(al, bl))
        },
        Dspidualsub => |a, b, _| {
            let (ah, al) = dual16(a);
            let (bh, bl) = dual16(b);
            let f = |a: u16, b: u16| clip_to_i16(i32::from(a as i16) - i32::from(b as i16)) as u16;
            pack_dual16(f(ah, bh), f(al, bl))
        },
        Dspidualabs => |a, _, _| {
            let (h, l) = dual16(a);
            let f = |a: u16| clip_to_i16(i32::from(a as i16).abs()) as u16;
            pack_dual16(f(h), f(l))
        },
        Quadavg => |a, b, _| {
            let a = quad8(a);
            let b = quad8(b);
            let mut out = [0u8; 4];
            for i in 0..4 {
                out[i] = avg_u8(a[i], b[i]);
            }
            pack_quad8(out)
        },
        Quadumin => |a, b, _| {
            let a = quad8(a);
            let b = quad8(b);
            let mut out = [0u8; 4];
            for i in 0..4 {
                out[i] = a[i].min(b[i]);
            }
            pack_quad8(out)
        },
        Quadumax => |a, b, _| {
            let a = quad8(a);
            let b = quad8(b);
            let mut out = [0u8; 4];
            for i in 0..4 {
                out[i] = a[i].max(b[i]);
            }
            pack_quad8(out)
        },
        Dualiclipi => |a, _, imm| {
            let (h, l) = dual16(a);
            let n = imm.clamp(0, 15) as u32;
            let lo = -(1i32 << n);
            let hi = (1i32 << n) - 1;
            let f = |a: u16| (i32::from(a as i16).clamp(lo, hi) as i16) as u16;
            pack_dual16(f(h), f(l))
        },
        Iclipi => |a, _, imm| {
            let n = imm.clamp(0, 30) as u32;
            (a as i32).clamp(-(1i32 << n), (1i32 << n) - 1) as u32
        },
        Uclipi => |a, _, imm| {
            let n = imm.clamp(0, 31) as u32;
            (a as i32).clamp(0, ((1u32 << n) - 1) as i32) as u32
        },
        Ume8uu => |a, b, _| {
            let a = quad8(a);
            let b = quad8(b);
            (0..4)
                .map(|i| (i32::from(a[i]) - i32::from(b[i])).unsigned_abs())
                .sum()
        },
        Ume8ii => |a, b, _| {
            let a = quad8(a);
            let b = quad8(b);
            (0..4)
                .map(|i| (i32::from(a[i] as i8) - i32::from(b[i] as i8)).unsigned_abs())
                .sum()
        },

        // --- multiplier ---
        Imul => |a, b, _| (a as i32).wrapping_mul(b as i32) as u32,
        Umul => |a, b, _| a.wrapping_mul(b),
        Imulm => |a, b, _| ((i64::from(a as i32) * i64::from(b as i32)) >> 32) as u32,
        Umulm => |a, b, _| ((u64::from(a) * u64::from(b)) >> 32) as u32,
        Dspimul => |a, b, _| clip_to_i32(i64::from(a as i32) * i64::from(b as i32)) as u32,
        Dspidualmul => |a, b, _| {
            let (ah, al) = dual16(a);
            let (bh, bl) = dual16(b);
            let f = |a: u16, b: u16| {
                clip_to_i16(i32::from(a as i16).wrapping_mul(i32::from(b as i16))) as u16
            };
            pack_dual16(f(ah, bh), f(al, bl))
        },
        Ifir16 => |a, b, _| {
            let (ah, al) = dual16(a);
            let (bh, bl) = dual16(b);
            (i32::from(ah as i16).wrapping_mul(i32::from(bh as i16))
                + i32::from(al as i16).wrapping_mul(i32::from(bl as i16))) as u32
        },
        Ufir16 => |a, b, _| {
            let (ah, al) = dual16(a);
            let (bh, bl) = dual16(b);
            u32::from(ah)
                .wrapping_mul(u32::from(bh))
                .wrapping_add(u32::from(al).wrapping_mul(u32::from(bl)))
        },
        Ifir8ii => |a, b, _| {
            let a = quad8(a);
            let b = quad8(b);
            let mut acc: i64 = 0;
            for i in 0..4 {
                acc += i64::from(a[i] as i8) * i64::from(b[i] as i8);
            }
            acc as u32
        },
        Ifir8ui => |a, b, _| {
            let a = quad8(a);
            let b = quad8(b);
            let mut acc: i64 = 0;
            for i in 0..4 {
                acc += i64::from(a[i]) * i64::from(b[i] as i8);
            }
            acc as u32
        },
        Ufir8uu => |a, b, _| {
            let a = quad8(a);
            let b = quad8(b);
            let mut acc: i64 = 0;
            for i in 0..4 {
                acc += i64::from(a[i]) * i64::from(b[i]);
            }
            acc as u32
        },
        Quadumulmsb => |a, b, _| {
            let a = quad8(a);
            let b = quad8(b);
            let mut out = [0u8; 4];
            for i in 0..4 {
                out[i] = ((u16::from(a[i]) * u16::from(b[i])) >> 8) as u8;
            }
            pack_quad8(out)
        },
        Fmul => |a, b, _| fb(f(a) * f(b)),

        // --- floating point ---
        Fadd => |a, b, _| fb(f(a) + f(b)),
        Fsub => |a, b, _| fb(f(a) - f(b)),
        Fabsval => |a, _, _| fb(f(a).abs()),
        Ifloat => |a, _, _| fb(a as i32 as f32),
        Ufloat => |a, _, _| fb(a as f32),
        Ifixrz => |a, _, _| {
            let v = f(a);
            if v.is_nan() {
                0
            } else {
                v.clamp(i32::MIN as f32, i32::MAX as f32) as i32 as u32
            }
        },
        Ufixrz => |a, _, _| {
            let v = f(a);
            if v.is_nan() {
                0
            } else {
                v.clamp(0.0, u32::MAX as f32) as u32
            }
        },
        Fgtr => |a, b, _| b32(f(a) > f(b)),
        Fgeq => |a, b, _| b32(f(a) >= f(b)),
        Feql => |a, b, _| b32(f(a) == f(b)),
        Fneq => |a, b, _| b32(f(a) != f(b)),
        Fleq => |a, b, _| b32(f(a) <= f(b)),
        Fles => |a, b, _| b32(f(a) < f(b)),
        Fsign => |a, _, _| {
            let v = f(a);
            fb(if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                0.0
            })
        },
        Fdiv => |a, b, _| fb(f(a) / f(b)),
        Fsqrt => |a, _, _| fb(f(a).sqrt()),

        // Everything with memory traffic, control flow, a second
        // destination or extra source operands stays on the full
        // `execute` path.
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn run(op: Op, setup: &[(u8, u32)]) -> (ExecResult, RegFile, FlatMemory) {
        let mut rf = RegFile::new();
        for &(reg, v) in setup {
            rf.write(r(reg), v);
        }
        let mut mem = FlatMemory::new(1 << 16);
        let res = execute(&op, &rf, &mut mem).unwrap();
        (res, rf, mem)
    }

    fn result_of(op: Op, setup: &[(u8, u32)]) -> u32 {
        let (res, _, _) = run(op, setup);
        res.writes[0].expect("operation produced a result").1
    }

    #[test]
    fn false_guard_suppresses_everything() {
        let mut rf = RegFile::new();
        rf.write(r(2), 0); // guard false
        rf.write(r(3), 7);
        let mut mem = FlatMemory::new(1 << 12);
        let op = Op::new(Opcode::St32d, r(2), &[r(3), r(3)], &[], 0);
        let res = execute(&op, &rf, &mut mem).unwrap();
        assert!(!res.executed);
        assert_eq!(mem.load_le(7, 4), 0, "guarded-false store must not write");
    }

    #[test]
    fn jmpf_branches_on_false_guard() {
        let mut rf = RegFile::new();
        rf.write(r(2), 0);
        let mut mem = FlatMemory::new(1 << 12);
        let op = Op::new(Opcode::Jmpf, r(2), &[], &[], 42);
        let res = execute(&op, &rf, &mut mem).unwrap();
        assert_eq!(res.branch_target, Some(42));
        // And does NOT branch on a true guard.
        rf.write(r(2), 1);
        let res = execute(&op, &rf, &mut mem).unwrap();
        assert_eq!(res.branch_target, None);
    }

    #[test]
    fn alu_basics() {
        assert_eq!(
            result_of(Op::rrr(Opcode::Iadd, r(4), r(2), r(3)), &[(2, 5), (3, 7)]),
            12
        );
        assert_eq!(
            result_of(Op::rrr(Opcode::Isub, r(4), r(2), r(3)), &[(2, 5), (3, 7)]),
            (-2i32) as u32
        );
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Imax, r(4), r(2), r(3)),
                &[(2, (-5i32) as u32), (3, 3)]
            ),
            3
        );
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Umax, r(4), r(2), r(3)),
                &[(2, (-5i32) as u32), (3, 3)]
            ),
            (-5i32) as u32
        );
    }

    #[test]
    fn compares_produce_bool_bits() {
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Igtr, r(4), r(2), r(3)),
                &[(2, (-1i32) as u32), (3, 1)]
            ),
            0
        );
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Ugtr, r(4), r(2), r(3)),
                &[(2, (-1i32) as u32), (3, 1)]
            ),
            1
        );
    }

    #[test]
    fn shifts_and_funnel() {
        assert_eq!(
            result_of(Op::rri(Opcode::Asli, r(4), r(2), 4), &[(2, 0x1234)]),
            0x12340
        );
        assert_eq!(
            result_of(Op::rri(Opcode::Asri, r(4), r(2), 4), &[(2, 0x8000_0000)]),
            0xf800_0000
        );
        // funshift2: two bytes from the top of src1's low half.
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Funshift2, r(4), r(2), r(3)),
                &[(2, 0x1122_3344), (3, 0x5566_7788)]
            ),
            0x3344_5566
        );
    }

    #[test]
    fn simd_saturation() {
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Dspiadd, r(4), r(2), r(3)),
                &[(2, 0x7fff_ffff), (3, 10)]
            ),
            0x7fff_ffff
        );
        // Dual 16 saturating add: 0x7fff + 1 saturates in the high lane.
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Dspidualadd, r(4), r(2), r(3)),
                &[(2, 0x7fff_0001), (3, 0x0001_0001)]
            ),
            0x7fff_0002
        );
    }

    #[test]
    fn quadavg_and_sad() {
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Quadavg, r(4), r(2), r(3)),
                &[(2, 0x00FF_0A14), (3, 0x0001_0C10)]
            ),
            u32::from_be_bytes([(1 / 2) as u8, 128, 11, ((0x14 + 0x10 + 1) / 2) as u8])
        );
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Ume8uu, r(4), r(2), r(3)),
                &[(2, 0x0a_14_1e_28), (3, 0x14_0a_28_1e)]
            ),
            40
        );
    }

    #[test]
    fn fir_ops() {
        // ifir16: (3 * 5) + (-2 * 7) = 1
        let a = pack_dual16(3, (-2i16) as u16);
        let b = pack_dual16(5, 7);
        assert_eq!(
            result_of(Op::rrr(Opcode::Ifir16, r(4), r(2), r(3)), &[(2, a), (3, b)]),
            1
        );
        // ufir8uu: 1*2 + 3*4 + 5*6 + 7*8 = 100
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Ufir8uu, r(4), r(2), r(3)),
                &[(2, 0x0103_0507), (3, 0x0204_0608)]
            ),
            100
        );
    }

    #[test]
    fn float_ops() {
        let a = 2.5f32.to_bits();
        let b = 4.0f32.to_bits();
        assert_eq!(
            f32::from_bits(result_of(
                Op::rrr(Opcode::Fmul, r(4), r(2), r(3)),
                &[(2, a), (3, b)]
            )),
            10.0
        );
        assert_eq!(
            result_of(
                Op::rr(Opcode::Ifixrz, r(4), r(2)),
                &[(2, (-2.9f32).to_bits())]
            ),
            (-2i32) as u32
        );
        assert_eq!(
            result_of(Op::rrr(Opcode::Fgtr, r(4), r(2), r(3)), &[(2, b), (3, a)]),
            1
        );
    }

    #[test]
    fn loads_are_little_endian_and_sign_extend() {
        let mut rf = RegFile::new();
        rf.write(r(2), 0x100);
        let mut mem = FlatMemory::new(1 << 12);
        mem.store_bytes(0x100, &[0xfe, 0x01, 0x02, 0x83]);
        let mut ld = |op, imm| {
            let o = Op::rri(op, r(4), r(2), imm);
            execute(&o, &rf, &mut mem).unwrap().writes[0].unwrap().1
        };
        assert_eq!(ld(Opcode::Uld8d, 0), 0xfe);
        assert_eq!(ld(Opcode::Ld8d, 0), 0xffff_fffe);
        assert_eq!(ld(Opcode::Uld16d, 0), 0x01fe);
        assert_eq!(ld(Opcode::Ld32d, 0), 0x8302_01fe);
        assert_eq!(ld(Opcode::Ld16d, 2), 0xffff_8302);
    }

    #[test]
    fn non_aligned_load_works() {
        let mut rf = RegFile::new();
        rf.write(r(2), 0x101); // deliberately misaligned
        let mut mem = FlatMemory::new(1 << 12);
        mem.store_bytes(0x100, &[0x11, 0x22, 0x33, 0x44, 0x55]);
        let o = Op::rri(Opcode::Ld32d, r(4), r(2), 0);
        assert_eq!(
            execute(&o, &rf, &mut mem).unwrap().writes[0].unwrap().1,
            0x5544_3322
        );
    }

    #[test]
    fn stores_write_memory() {
        let mut rf = RegFile::new();
        rf.write(r(2), 0x200);
        rf.write(r(3), 0xdead_beef);
        let mut mem = FlatMemory::new(1 << 12);
        let st = Op::new(Opcode::St32d, Reg::ONE, &[r(2), r(3)], &[], 4);
        execute(&st, &rf, &mut mem).unwrap();
        assert_eq!(mem.load_le(0x204, 4), 0xdead_beef);
        let st8 = Op::new(Opcode::St8d, Reg::ONE, &[r(2), r(3)], &[], 0);
        execute(&st8, &rf, &mut mem).unwrap();
        assert_eq!(mem.load_le(0x200, 1), 0xef);
    }

    #[test]
    fn ld_frac8_matches_table2() {
        let mut rf = RegFile::new();
        rf.write(r(2), 0x300);
        rf.write(r(3), 5); // fractional position 5/16
        let mut mem = FlatMemory::new(1 << 12);
        let data = [10u8, 20, 30, 40, 50];
        mem.store_bytes(0x300, &data);
        let o = Op::rrr(Opcode::LdFrac8, r(4), r(2), r(3));
        let got = execute(&o, &rf, &mut mem).unwrap().writes[0].unwrap().1;
        let expect = |a: u32, b: u32| (a * 11 + b * 5 + 8) / 16;
        assert_eq!(
            got,
            (expect(10, 20) << 24)
                | (expect(20, 30) << 16)
                | (expect(30, 40) << 8)
                | expect(40, 50)
        );
    }

    #[test]
    fn ld_frac8_frac_zero_is_plain_load() {
        let mut rf = RegFile::new();
        rf.write(r(2), 0x300);
        rf.write(r(3), 0);
        let mut mem = FlatMemory::new(1 << 12);
        mem.store_bytes(0x300, &[1, 2, 3, 4, 99]);
        let o = Op::rrr(Opcode::LdFrac8, r(4), r(2), r(3));
        let got = execute(&o, &rf, &mut mem).unwrap().writes[0].unwrap().1;
        assert_eq!(got, 0x0102_0304, "frac 0 returns the first four bytes");
    }

    #[test]
    fn super_ld32r_is_big_endian_per_table2() {
        let mut rf = RegFile::new();
        rf.write(r(2), 0x400);
        rf.write(r(3), 4);
        let mut mem = FlatMemory::new(1 << 12);
        mem.store_bytes(0x404, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let o = Op::new(
            Opcode::SuperLd32r,
            Reg::ONE,
            &[r(2), r(3)],
            &[r(10), r(11)],
            0,
        );
        let res = execute(&o, &rf, &mut mem).unwrap();
        assert_eq!(res.writes[0], Some((r(10), 0x0102_0304)));
        assert_eq!(res.writes[1], Some((r(11), 0x0506_0708)));
    }

    #[test]
    fn super_dualimix_matches_table2() {
        let mut rf = RegFile::new();
        // High lanes: 100 * 200 + 300 * 400 = 140000
        // Low lanes: -1 * 7 + 2 * 3 = -1
        rf.write(r(2), pack_dual16(100, (-1i16) as u16));
        rf.write(r(3), pack_dual16(200, 7));
        rf.write(r(4), pack_dual16(300, 2));
        rf.write(r(5), pack_dual16(400, 3));
        let mut mem = FlatMemory::new(1 << 12);
        let o = Op::new(
            Opcode::SuperDualimix,
            Reg::ONE,
            &[r(2), r(3), r(4), r(5)],
            &[r(10), r(11)],
            0,
        );
        let res = execute(&o, &rf, &mut mem).unwrap();
        assert_eq!(res.writes[0], Some((r(10), 140_000)));
        assert_eq!(res.writes[1], Some((r(11), (-1i32) as u32)));
    }

    #[test]
    fn super_dualimix_clips_to_i32() {
        let mut rf = RegFile::new();
        let big = pack_dual16((-32768i16) as u16, 0);
        rf.write(r(2), big);
        rf.write(r(3), big);
        rf.write(r(4), big);
        rf.write(r(5), big);
        let mut mem = FlatMemory::new(1 << 12);
        let o = Op::new(
            Opcode::SuperDualimix,
            Reg::ONE,
            &[r(2), r(3), r(4), r(5)],
            &[r(10), r(11)],
            0,
        );
        let res = execute(&o, &rf, &mut mem).unwrap();
        // 2 * (-32768)^2 = 2^31 clips to 2^31 - 1.
        assert_eq!(res.writes[0], Some((r(10), i32::MAX as u32)));
    }

    #[test]
    fn cabac_ops_agree_with_reference_step() {
        let state = CabacState {
            value: 120,
            range: 400,
            state: 17,
            mps: true,
        };
        let stream = 0xcafe_babe;
        let pos = 5;
        let step = cabac_decode_step(state, stream, pos);

        let mut rf = RegFile::new();
        rf.write(r(2), pack_dual16(state.value, state.range));
        rf.write(r(3), pos);
        rf.write(r(4), stream);
        rf.write(r(5), pack_dual16(u16::from(state.state), 1));
        let mut mem = FlatMemory::new(1 << 12);

        let ctx = Op::new(
            Opcode::SuperCabacCtx,
            Reg::ONE,
            &[r(2), r(3), r(4), r(5)],
            &[r(10), r(11)],
            0,
        );
        let res = execute(&ctx, &rf, &mut mem).unwrap();
        assert_eq!(
            res.writes[0],
            Some((r(10), pack_dual16(step.next.value, step.next.range)))
        );
        assert_eq!(
            res.writes[1],
            Some((
                r(11),
                pack_dual16(u16::from(step.next.state), u16::from(step.next.mps))
            ))
        );

        let strop = Op::new(
            Opcode::SuperCabacStr,
            Reg::ONE,
            &[r(2), r(3), r(5)],
            &[r(12), r(13)],
            0,
        );
        let res = execute(&strop, &rf, &mut mem).unwrap();
        assert_eq!(res.writes[0], Some((r(12), step.stream_bit_position)));
        assert_eq!(res.writes[1], Some((r(13), u32::from(step.bit))));
    }

    #[test]
    fn pf_param_writes_reach_memory_interface() {
        struct Probe {
            got: Vec<(PfParam, u8, u32)>,
        }
        impl DataMemory for Probe {
            fn load_bytes(&mut self, _: u32, _: &mut [u8]) {}
            fn store_bytes(&mut self, _: u32, _: &[u8]) {}
            fn write_pf_param(&mut self, p: PfParam, r: u8, v: u32) {
                self.got.push((p, r, v));
            }
        }
        let mut rf = RegFile::new();
        rf.write(r(2), 0x8000);
        let mut probe = Probe { got: vec![] };
        let op = Op::new(Opcode::StPfStride, Reg::ONE, &[r(2)], &[], 2);
        execute(&op, &rf, &mut probe).unwrap();
        assert_eq!(probe.got, vec![(PfParam::Stride, 2, 0x8000)]);
    }

    #[test]
    fn ubytesel_selects_by_index() {
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Ubytesel, r(4), r(2), r(3)),
                &[(2, 0x4433_2211), (3, 2)]
            ),
            0x33
        );
    }

    #[test]
    fn merge_ops() {
        assert_eq!(
            result_of(
                Op::rrr(Opcode::MergeMsb, r(4), r(2), r(3)),
                &[(2, 0xa1a2_a3a4), (3, 0xb1b2_b3b4)]
            ),
            0xa1b1_a2b2
        );
        assert_eq!(
            result_of(
                Op::rrr(Opcode::MergeLsb, r(4), r(2), r(3)),
                &[(2, 0xa1a2_a3a4), (3, 0xb1b2_b3b4)]
            ),
            0xa3b3_a4b4
        );
        assert_eq!(
            result_of(
                Op::rrr(Opcode::Pack16Lsb, r(4), r(2), r(3)),
                &[(2, 0xa1a2_a3a4), (3, 0xb1b2_b3b4)]
            ),
            0xa3a4_b3b4
        );
    }

    #[test]
    fn pure_fns_match_execute() {
        // Differential check: for every opcode with a specialized pure
        // evaluator, the function must agree with `execute` bit-for-bit
        // on randomized source/immediate values — including float NaN
        // payloads and saturation corners that only show up at extreme
        // bit patterns.
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut rng = || {
            // xorshift64*: deterministic, dependency-free.
            seed ^= seed >> 12;
            seed ^= seed << 25;
            seed ^= seed >> 27;
            seed.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let corners = [
            0u32,
            1,
            0x7fff_ffff,
            0x8000_0000,
            0xffff_ffff,
            0x7fff_0001,
            0x8000_7fff,
            f32::NAN.to_bits(),
            f32::INFINITY.to_bits(),
        ];
        let mut covered = 0;
        for &opcode in Opcode::all() {
            let Some(pf) = pure_fn(opcode) else { continue };
            covered += 1;
            assert!(
                !opcode.is_mem() && !opcode.is_jump() && !opcode.is_two_slot(),
                "{opcode}: pure evaluator on a non-pure opcode"
            );
            for trial in 0..64 {
                let (a, b) = if trial < corners.len() * corners.len() {
                    (
                        corners[trial % corners.len()],
                        corners[trial / corners.len()],
                    )
                } else {
                    (rng() as u32, rng() as u32)
                };
                let sig = opcode.signature();
                let imm = if sig.imm {
                    rng() as u32 as i32 % 4096
                } else {
                    0
                };
                let mut rf = RegFile::new();
                rf.write(r(2), a);
                rf.write(r(3), b);
                // Sources past the opcode's arity read as r0 (zero), both
                // here and in the machine's fused dispatch.
                let srcs_all = [r(2), r(3)];
                let srcs = &srcs_all[..sig.srcs as usize];
                let (a, b) = match sig.srcs {
                    0 => (0, 0),
                    1 => (a, 0),
                    _ => (a, b),
                };
                let op = Op::new(opcode, Reg::ONE, srcs, &[r(10)], imm);
                let mut mem = FlatMemory::new(1 << 12);
                let res = execute(&op, &rf, &mut mem).unwrap();
                assert!(res.executed, "{opcode}: guard-true op must execute");
                assert_eq!(res.branch_target, None, "{opcode}: pure op branched");
                assert_eq!(res.writes[1], None, "{opcode}: pure op wrote twice");
                let want = res.writes[0].expect("pure op writes its destination");
                assert_eq!(want.0, r(10), "{opcode}: wrong destination");
                assert_eq!(
                    pf(a, b, imm),
                    want.1,
                    "{opcode}: pure fn diverges from execute on a={a:#x} b={b:#x} imm={imm}"
                );
            }
        }
        assert!(
            covered > 90,
            "expected ~100 specialized opcodes, got {covered}"
        );
    }
}
