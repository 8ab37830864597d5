//! List-scheduler build time: every registry workload built for config D,
//! the whole 76-cell registry (19 workloads x configs A-D), and seeded
//! random blocks of growing size to show how `schedule_block` scales.

use tm3270_asm::{schedule_block, TaggedOp};
use tm3270_bench::timing::bench;
use tm3270_core::MachineConfig;
use tm3270_fault::SmallRng;
use tm3270_isa::{IssueModel, Op, Opcode, Reg};
use tm3270_kernels::registry;

/// A random straight-line block: ALU, multiplier and displacement
/// load/store operations over 32 registers and four shared base registers.
fn random_block(n: usize, seed: u64) -> Vec<TaggedOp> {
    let mut rng = SmallRng::new(seed);
    let reg = |rng: &mut SmallRng| Reg::new(8 + rng.below(32) as u8);
    (0..n)
        .map(|_| {
            let base = Reg::new(2 + rng.below(4) as u8);
            let disp = rng.range_i32(0, 63) * 4;
            let op = match rng.below(4) {
                0 => Op::rri(Opcode::Ld32d, reg(&mut rng), base, disp),
                1 => Op::new(Opcode::St32d, Reg::ONE, &[base, reg(&mut rng)], &[], disp),
                2 => Op::rrr(Opcode::Imul, reg(&mut rng), reg(&mut rng), reg(&mut rng)),
                _ => Op::rrr(Opcode::Iadd, reg(&mut rng), reg(&mut rng), reg(&mut rng)),
            };
            TaggedOp { op, stream: None }
        })
        .collect()
}

fn main() {
    let model = IssueModel::tm3270();
    for workload in registry(1) {
        let Ok(program) = workload.build(&model) else {
            continue;
        };
        let name = format!("sched/build/{} (config D)", workload.name());
        bench(&name, program.instrs.len() as u64, || {
            workload.build(&model).map_or(0, |p| p.instrs.len())
        });
    }

    let workloads = registry(1);
    let configs = MachineConfig::evaluation_suite();
    let cells = (workloads.len() * configs.len()) as u64;
    bench("sched/build/registry (76 cells)", cells, || {
        let mut instrs = 0usize;
        for w in &workloads {
            for c in &configs {
                instrs += w.build(&c.issue).map_or(0, |p| p.instrs.len());
            }
        }
        instrs
    });

    for n in [250, 500, 1000, 2000, 4000] {
        let ops = random_block(n, n as u64);
        bench(&format!("sched/random_block/{n}"), n as u64, || {
            schedule_block(&model, std::hint::black_box(&ops)).map_or(0, |b| b.instrs.len())
        });
    }
}
