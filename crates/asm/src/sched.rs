//! List scheduler: packs a linear (program-order) operation sequence into
//! VLIW instructions for a given [`IssueModel`].
//!
//! This is the reproduction's stand-in for the TriMedia compiler's
//! scheduler. It honours:
//!
//! * issue-slot binding per functional unit (loads only in slot 5 on the
//!   TM3270, two-slot operations in adjacent slots, ...);
//! * operation latencies (consumers issue no earlier than producer issue
//!   cycle + latency; TriMedia has **no hardware interlocks**, so the
//!   schedule *is* the correctness contract);
//! * write-back port conflicts (one result per issue slot per cycle);
//! * load-port limits (two loads per instruction on the TM3260, one on
//!   the TM3270 — paper, Table 6);
//! * memory ordering with a small displacement-based alias analysis and
//!   user-provided stream tags.

use tm3270_isa::{Instr, IssueModel, Op, Opcode, Reg, Unit, NUM_REGS};

/// An operation tagged with scheduling metadata.
#[derive(Debug, Clone, Copy)]
pub struct TaggedOp {
    /// The operation.
    pub op: Op,
    /// Memory-stream tag: memory operations in different streams are
    /// guaranteed by the author not to alias (e.g. the source and
    /// destination buffers of a copy). `None` means the default stream.
    pub stream: Option<u32>,
}

/// Scheduling failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The opcode has no issue slot on this machine (e.g. a TM3270-only
    /// operation scheduled for the TM3260).
    NoSlot {
        /// Mnemonic of the offending operation.
        mnemonic: &'static str,
    },
    /// The scheduler could not place an operation within its window
    /// (internal error).
    Unschedulable {
        /// Mnemonic of the offending operation.
        mnemonic: &'static str,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::NoSlot { mnemonic } => {
                write!(f, "`{mnemonic}` has no issue slot on this machine")
            }
            SchedError::Unschedulable { mnemonic } => {
                write!(f, "scheduler failed to place `{mnemonic}`")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// A scheduled basic block: instruction sequence plus the issue cycle of
/// each input operation.
#[derive(Debug, Clone)]
pub struct ScheduledBlock {
    /// The packed VLIW instructions.
    pub instrs: Vec<Instr>,
    /// Issue cycle of each input operation (index-parallel with the
    /// input).
    pub issue_cycles: Vec<u64>,
}

fn is_mem(op: &Op) -> bool {
    op.opcode.is_mem()
}

fn mem_footprint(op: &Op) -> u32 {
    match op.opcode {
        Opcode::St8d | Opcode::Ld8d | Opcode::Uld8d | Opcode::Ld8r | Opcode::Uld8r => 1,
        Opcode::St16d | Opcode::Ld16d | Opcode::Uld16d | Opcode::Ld16r | Opcode::Uld16r => 2,
        Opcode::LdFrac8 => 5,
        Opcode::SuperLd32r => 8,
        _ => 4,
    }
}

/// Conservative may-alias test between two memory operations.
fn may_alias(a: &TaggedOp, b: &TaggedOp) -> bool {
    if let (Some(sa), Some(sb)) = (a.stream, b.stream) {
        if sa != sb {
            return false;
        }
    }
    // Displacement-based disambiguation: same base register, disjoint
    // displacement intervals.
    let base = |t: &TaggedOp| -> Option<(Reg, i64, i64)> {
        let op = &t.op;
        let sig = op.opcode.signature();
        if !sig.imm || sig.srcs == 0 {
            return None;
        }
        let lo = i64::from(op.imm);
        Some((op.srcs[0], lo, lo + i64::from(mem_footprint(op))))
    };
    match (base(a), base(b)) {
        (Some((ra, lo_a, hi_a)), Some((rb, lo_b, hi_b))) if ra == rb => lo_a < hi_b && lo_b < hi_a,
        _ => true,
    }
}

/// Whether a memory operation orders like a store: stores and the
/// cache-control operations of the store unit.
fn is_store_like(op: &Op) -> bool {
    op.opcode.unit() == Unit::Store
}

/// A dependence graph in compressed rows: row `j` is
/// `edges[start[j]..start[j + 1]]`, a list of `(other op, delta)`.
struct Rows {
    start: Vec<u32>,
    edges: Vec<(u32, u32)>,
}

impl Rows {
    fn row(&self, j: usize) -> &[(u32, u32)] {
        &self.edges[self.start[j] as usize..self.start[j + 1] as usize]
    }

    /// The reversed graph: row `i` lists the ops whose rows name `i`.
    fn transpose(&self) -> Rows {
        let n = self.start.len() - 1;
        let mut start = vec![0u32; n + 1];
        for &(p, _) in &self.edges {
            start[p as usize + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut edges = vec![(0, 0); self.edges.len()];
        for j in 0..n {
            for &(p, delta) in self.row(j) {
                let k = &mut fill[p as usize];
                edges[*k as usize] = (j as u32, delta);
                *k += 1;
            }
        }
        Rows { start, edges }
    }
}

/// Builds the predecessor rows: an edge `(i, delta)` in row `j` means
/// `issue[j] >= issue[i] + delta`, with one edge per `(i, j)` pair
/// carrying the largest delta of its hazards.
///
/// Register hazards link `j` to every earlier writer of a register it
/// reads (RAW) or writes (WAW) and to every earlier reader of a register
/// it writes (WAR). Memory ordering links a memory operation to every
/// earlier one it may alias, unless both are loads.
fn build_deps(ops: &[TaggedOp], lat: &[u32]) -> Rows {
    let n = ops.len();
    let mut start = Vec::with_capacity(n + 1);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // `(row, position)` of the newest edge from each op, for deduplication.
    let mut newest = vec![(u32::MAX, 0u32); n];
    // The earlier writers and readers of each register.
    let mut writers: Vec<Vec<u32>> = vec![Vec::new(); NUM_REGS];
    let mut readers: Vec<Vec<u32>> = vec![Vec::new(); NUM_REGS];
    let mut mem_ops: Vec<u32> = Vec::new();
    let mut stores: Vec<u32> = Vec::new();
    start.push(0);
    for (j, tj) in ops.iter().enumerate() {
        let oj = &tj.op;
        let row = j as u32;
        let mut add = |i: u32, delta: u32| {
            let (r, k) = &mut newest[i as usize];
            if *r == row {
                let e = &mut edges[*k as usize].1;
                *e = (*e).max(delta);
            } else {
                *r = row;
                *k = edges.len() as u32;
                edges.push((i, delta));
            }
        };
        let reads = || oj.sources().iter().chain([&oj.guard]);
        for &r in reads() {
            for &i in &writers[r.index()] {
                add(i, lat[i as usize]); // RAW
            }
        }
        for &d in oj.dests() {
            for &i in &writers[d.index()] {
                add(i, (lat[i as usize] + 1).saturating_sub(lat[j])); // WAW
            }
            for &i in &readers[d.index()] {
                add(i, 0); // WAR
            }
        }
        if is_mem(oj) {
            let j_store = is_store_like(oj);
            // Loads reorder freely among themselves.
            let earlier = if j_store { &mem_ops } else { &stores };
            for &i in earlier {
                let ti = &ops[i as usize];
                if may_alias(ti, tj) {
                    add(i, u32::from(is_store_like(&ti.op)));
                }
            }
            mem_ops.push(row);
            if j_store {
                stores.push(row);
            }
        }
        for &r in reads() {
            let list = &mut readers[r.index()];
            if list.last() != Some(&row) {
                list.push(row);
            }
        }
        for &d in oj.dests() {
            writers[d.index()].push(row);
        }
        start.push(edges.len() as u32);
    }
    Rows { start, edges }
}

/// Per-cycle structural state.
#[derive(Debug, Default, Clone)]
struct Cycle {
    slots: [bool; 5],
    loads: u8,
}

/// The structural state of a partial schedule: issue slots and load
/// ports per issue cycle, write-back ports per landing cycle.
struct Resources<'m> {
    model: &'m IssueModel,
    /// One entry per issue cycle examined so far.
    cycles: Vec<Cycle>,
    /// Write-back ports taken, indexed by landing cycle.
    wb: Vec<[bool; 5]>,
}

impl Resources<'_> {
    fn wb_taken(&self, c: usize, s: usize) -> bool {
        self.wb.get(c).is_some_and(|w| w[s])
    }

    /// Places `op` in the first cycle at or after `earliest` with a free
    /// slot, load port and write-back port(s); returns `(cycle, slot)`.
    fn place(&mut self, op: &Op, lat: u32, earliest: u64) -> Result<(u64, usize), SchedError> {
        let allowed = self.model.allowed_slots(op.opcode);
        if allowed.is_empty() {
            return Err(SchedError::NoSlot {
                mnemonic: op.opcode.mnemonic(),
            });
        }
        let is_load = op.opcode.is_load();
        let two_slot = op.opcode.is_two_slot();
        let n_dsts = op.dests().len();
        for c in earliest as usize..earliest as usize + 100_000 {
            if self.cycles.len() <= c {
                self.cycles.resize(c + 1, Cycle::default());
            }
            let cy = &self.cycles[c];
            if is_load && cy.loads >= self.model.loads_per_instr {
                continue;
            }
            let land = c + lat as usize;
            let Some(&s) = allowed.iter().find(|&&s| {
                !cy.slots[s]
                    && (!two_slot || !cy.slots[s + 1])
                    && (n_dsts == 0 || !self.wb_taken(land, s))
                    && (n_dsts < 2 || !self.wb_taken(land, s + 1))
            }) else {
                continue;
            };
            let cy = &mut self.cycles[c];
            cy.slots[s] = true;
            if two_slot {
                cy.slots[s + 1] = true;
            }
            if is_load {
                cy.loads += 1;
            }
            if n_dsts >= 1 {
                if self.wb.len() <= land {
                    self.wb.resize(land + 1, [false; 5]);
                }
                self.wb[land][s] = true;
                if n_dsts >= 2 {
                    self.wb[land][s + 1] = true;
                }
            }
            return Ok((c as u64, s));
        }
        Err(SchedError::Unschedulable {
            mnemonic: op.opcode.mnemonic(),
        })
    }
}

/// Schedules `ops` (program order) into VLIW instructions.
///
/// The list scheduler works in rounds. An operation becomes a candidate
/// in the round after its last predecessor is placed; each round places
/// its candidates highest critical path first (ties in program order),
/// each in the first cycle that satisfies its dependences and has the
/// resources free. Building the dependence rows costs O(n + E) plus a
/// scan over pairs of memory operations; the rounds cost O(E) plus
/// sorting and the per-operation cycle search.
///
/// # Errors
///
/// Returns [`SchedError`] if an operation cannot be placed.
pub fn schedule_block(model: &IssueModel, ops: &[TaggedOp]) -> Result<ScheduledBlock, SchedError> {
    let n = ops.len();
    let lat: Vec<u32> = ops.iter().map(|t| model.latency(t.op.opcode)).collect();
    let preds = build_deps(ops, &lat);
    let succs = preds.transpose();

    // Critical-path heights for priority: every successor of `j` has a
    // larger index, so one reverse pass sees final heights only.
    let mut height = vec![0u32; n];
    for j in (0..n).rev() {
        let hj = height[j];
        for &(p, delta) in preds.row(j) {
            let h = &mut height[p as usize];
            *h = (*h).max(hj + delta.max(1));
        }
    }

    let mut unplaced_preds: Vec<u32> = (0..n).map(|j| preds.row(j).len() as u32).collect();
    let mut ready: Vec<u32> = (0..n as u32)
        .filter(|&j| unplaced_preds[j as usize] == 0)
        .collect();
    let mut next = Vec::new();
    let mut issue = vec![0u64; n];
    let mut placed_slots = vec![0usize; n];
    let mut res = Resources {
        model,
        cycles: Vec::new(),
        wb: Vec::new(),
    };
    while !ready.is_empty() {
        // Highest critical path first; ties by program order.
        ready.sort_unstable_by_key(|&j| (std::cmp::Reverse(height[j as usize]), j));
        for &j in &ready {
            let j = j as usize;
            let earliest = preds
                .row(j)
                .iter()
                .map(|&(p, delta)| issue[p as usize] + u64::from(delta))
                .max()
                .unwrap_or(0);
            (issue[j], placed_slots[j]) = res.place(&ops[j].op, lat[j], earliest)?;
        }
        for &j in &ready {
            for &(s, _) in succs.row(j as usize) {
                let left = &mut unplaced_preds[s as usize];
                *left -= 1;
                if *left == 0 {
                    next.push(s);
                }
            }
        }
        ready.clear();
        std::mem::swap(&mut ready, &mut next);
    }

    // Materialize instructions. All results must land inside the block
    // (drain semantics at block boundaries keeps cross-block schedules
    // correct without global liveness analysis).
    let len = (0..n)
        .map(|j| (issue[j] + u64::from(lat[j])) as usize)
        .fold(res.cycles.len(), usize::max);
    let mut instrs = vec![Instr::nop(); len];
    for j in 0..n {
        instrs[issue[j] as usize].place(ops[j].op, placed_slots[j]);
    }
    Ok(ScheduledBlock {
        instrs,
        issue_cycles: issue,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn t(op: Op) -> TaggedOp {
        TaggedOp { op, stream: None }
    }

    #[test]
    fn independent_ops_pack_into_one_instruction() {
        let model = IssueModel::tm3270();
        let ops: Vec<_> = (0..5)
            .map(|i| t(Op::rrr(Opcode::Iadd, r(10 + i), r(2), r(3))))
            .collect();
        let sched = schedule_block(&model, &ops).unwrap();
        assert_eq!(sched.instrs.len(), 1);
        assert_eq!(sched.instrs[0].op_count(), 5);
    }

    #[test]
    fn raw_dependency_respects_latency() {
        let model = IssueModel::tm3270();
        let ops = vec![
            t(Op::rrr(Opcode::Imul, r(10), r(2), r(3))), // latency 3
            t(Op::rrr(Opcode::Iadd, r(11), r(10), r(3))),
        ];
        let sched = schedule_block(&model, &ops).unwrap();
        assert_eq!(sched.issue_cycles[0], 0);
        assert_eq!(sched.issue_cycles[1], 3);
    }

    #[test]
    fn load_latency_differs_by_machine() {
        let mk = |model: IssueModel| {
            let ops = vec![
                t(Op::rri(Opcode::Ld32d, r(10), r(2), 0)),
                t(Op::rrr(Opcode::Iadd, r(11), r(10), r(3))),
            ];
            schedule_block(&model, &ops).unwrap().issue_cycles[1]
        };
        assert_eq!(mk(IssueModel::tm3270()), 4);
        assert_eq!(mk(IssueModel::tm3260()), 3);
    }

    #[test]
    fn tm3260_issues_two_loads_per_instruction() {
        let ops = vec![
            t(Op::rri(Opcode::Ld32d, r(10), r(2), 0)),
            t(Op::rri(Opcode::Ld32d, r(11), r(2), 4)),
        ];
        let s60 = schedule_block(&IssueModel::tm3260(), &ops).unwrap();
        assert_eq!(s60.issue_cycles, vec![0, 0]);
        let s70 = schedule_block(&IssueModel::tm3270(), &ops).unwrap();
        assert_eq!(s70.issue_cycles, vec![0, 1], "one load port on TM3270");
    }

    #[test]
    fn two_slot_op_occupies_adjacent_slots() {
        let model = IssueModel::tm3270();
        let ops = vec![
            t(Op::new(
                Opcode::SuperDualimix,
                Reg::ONE,
                &[r(2), r(3), r(4), r(5)],
                &[r(10), r(11)],
                0,
            )),
            t(Op::rrr(Opcode::Quadavg, r(12), r(2), r(3))),
        ];
        let sched = schedule_block(&model, &ops).unwrap();
        // DspAlu (slots 2,3 1-based = indices 1,2) collides with the super
        // op in slots 2+3; quadavg must go to the other dsp slot or the
        // next cycle.
        assert!(!sched.instrs.is_empty());
        let i0 = &sched.instrs[0];
        assert!(i0.slots[1].is_used() && i0.slots[2].is_used());
    }

    #[test]
    fn tm3270_only_op_fails_on_tm3260() {
        let ops = vec![t(Op::rrr(Opcode::LdFrac8, r(10), r(2), r(3)))];
        assert!(matches!(
            schedule_block(&IssueModel::tm3260(), &ops),
            Err(SchedError::NoSlot { .. })
        ));
    }

    #[test]
    fn aliasing_stores_stay_ordered() {
        let model = IssueModel::tm3270();
        let ops = vec![
            t(Op::new(Opcode::St32d, Reg::ONE, &[r(2), r(3)], &[], 0)),
            t(Op::new(Opcode::St32d, Reg::ONE, &[r(2), r(4)], &[], 0)),
        ];
        let sched = schedule_block(&model, &ops).unwrap();
        assert!(sched.issue_cycles[1] > sched.issue_cycles[0]);
    }

    #[test]
    fn disjoint_stores_dual_issue() {
        let model = IssueModel::tm3270();
        let ops = vec![
            t(Op::new(Opcode::St32d, Reg::ONE, &[r(2), r(3)], &[], 0)),
            t(Op::new(Opcode::St32d, Reg::ONE, &[r(2), r(4)], &[], 4)),
        ];
        let sched = schedule_block(&model, &ops).unwrap();
        assert_eq!(
            sched.issue_cycles,
            vec![0, 0],
            "provably disjoint stores issue together (two store slots)"
        );
    }

    #[test]
    fn different_streams_do_not_alias() {
        let model = IssueModel::tm3270();
        let ops = vec![
            TaggedOp {
                op: Op::new(Opcode::St32d, Reg::ONE, &[r(2), r(3)], &[], 0),
                stream: Some(1),
            },
            TaggedOp {
                op: Op::rri(Opcode::Ld32d, r(10), r(4), 0),
                stream: Some(2),
            },
        ];
        let sched = schedule_block(&model, &ops).unwrap();
        assert_eq!(sched.issue_cycles, vec![0, 0]);
    }

    #[test]
    fn store_then_load_same_address_ordered() {
        let model = IssueModel::tm3270();
        let ops = vec![
            t(Op::new(Opcode::St32d, Reg::ONE, &[r(2), r(3)], &[], 0)),
            t(Op::rri(Opcode::Ld32d, r(10), r(2), 0)),
        ];
        let sched = schedule_block(&model, &ops).unwrap();
        assert!(sched.issue_cycles[1] > sched.issue_cycles[0]);
    }

    #[test]
    fn waw_keeps_final_value() {
        let model = IssueModel::tm3270();
        // imul (lat 3) then iadd (lat 1) to the same destination: the add
        // must land strictly after the multiply's write-back.
        let ops = vec![
            t(Op::rrr(Opcode::Imul, r(10), r(2), r(3))),
            t(Op::rrr(Opcode::Iadd, r(10), r(4), r(5))),
        ];
        let sched = schedule_block(&model, &ops).unwrap();
        let (c0, c1) = (sched.issue_cycles[0], sched.issue_cycles[1]);
        assert!(c1 + 1 > c0 + 3, "add write-back after mul write-back");
    }

    #[test]
    fn block_drains_latencies() {
        let model = IssueModel::tm3270();
        let ops = vec![t(Op::rri(Opcode::Ld32d, r(10), r(2), 0))];
        let sched = schedule_block(&model, &ops).unwrap();
        assert_eq!(sched.instrs.len(), 4, "load result lands inside block");
    }

    #[test]
    fn writeback_port_conflict_avoided() {
        let model = IssueModel::tm3270();
        // An imul at cycle 0 (lat 3, writes back at 3) and an iadd that
        // would write back through the same slot at cycle 3 if issued at
        // cycle 2 in the same slot.
        let mut ops = Vec::new();
        ops.push(t(Op::rrr(Opcode::Imul, r(10), r(2), r(3)))); // slot 1 or 2
        for i in 0..30 {
            ops.push(t(Op::rrr(Opcode::Iadd, r(20 + (i % 40) as u8), r(2), r(3))));
        }
        let sched = schedule_block(&model, &ops).unwrap();
        // Verify no two results land on the same (cycle, slot).
        let mut seen = std::collections::HashSet::new();
        for (j, &c) in sched.issue_cycles.iter().enumerate() {
            let lat = u64::from(model.latency(ops[j].op.opcode));
            for (s, slot) in sched.instrs[c as usize].slots.iter().enumerate() {
                if let Some(op) = slot.op() {
                    if op == &ops[j].op && !ops[j].op.dests().is_empty() {
                        for (k, _) in ops[j].op.dests().iter().enumerate() {
                            assert!(seen.insert((c + lat, s + k)), "wb clash at {c}+{lat}");
                        }
                    }
                }
            }
        }
    }
}
