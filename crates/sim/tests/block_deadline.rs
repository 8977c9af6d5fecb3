//! Superblock retire with overflow deadlines is exact: a random machine
//! op stream retired op by op through `Core::retire`, and the same
//! stream retired as random-length blocks (apply lanes, deadline check
//! after every op, commit through the op that reaches the deadline),
//! raise the same overflow interrupts on the same ops and end with the
//! same counters, overflow bits, cycles and instructions — with scalar
//! and unit-stride vector memory, branches, FP and vector FMA ops.

use mperf_sim::pmu::{COUNTER_CYCLE, NUM_COUNTERS};
use mperf_sim::{BlockAcc, Core, HwEvent, MachineOp, MemRef, OpClass, PlatformSpec, PrivMode};
use proptest::prelude::*;

/// Events a sampling counter may be armed on (cycle events take the
/// deadline, the rest the op-by-op commit).
const ARMABLE: [HwEvent; 9] = [
    HwEvent::CpuCycles,
    HwEvent::UModeCycles,
    HwEvent::SModeCycles,
    HwEvent::Instructions,
    HwEvent::L1dAccess,
    HwEvent::L1dMiss,
    HwEvent::BranchMisses,
    HwEvent::FpOps,
    HwEvent::VecInstructions,
];

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_op(rng: &mut Rng, i: u64) -> MachineOp {
    let pc = i % 97;
    match rng.below(10) {
        0 => MachineOp::simple(OpClass::IntMul, pc),
        1 => MachineOp::simple(OpClass::Move, pc),
        2 => MachineOp::simple(OpClass::Load, pc).with_mem(MemRef::scalar(
            0x1000 + rng.below(1 << 16) * 8,
            8,
            false,
        )),
        3 => MachineOp::simple(OpClass::Store, pc).with_mem(MemRef::scalar(
            0x1000 + rng.below(1 << 12) * 8,
            8,
            true,
        )),
        4 => MachineOp::simple(OpClass::Branch, pc).with_taken(rng.below(3) != 0),
        5 => MachineOp::simple(OpClass::FpFma, pc).with_flops(2),
        // Unit-stride vector memory of up to a line, often straddling
        // two: the widest references superblocks admit.
        6 | 7 => {
            let (bytes, lanes) = [(8, 4), (8, 8), (4, 8), (4, 16)][rng.below(4) as usize];
            let class = if rng.below(2) == 0 {
                OpClass::VecLoad
            } else {
                OpClass::VecStore
            };
            MachineOp::simple(class, pc).with_mem(MemRef {
                addr: 0x1000 + rng.below(1 << 14) * 8,
                bytes,
                lanes,
                stride: bytes as i64,
                is_store: class == OpClass::VecStore,
            })
        }
        8 => MachineOp::simple(OpClass::VecFma, pc).with_flops(16),
        _ => MachineOp::simple(OpClass::IntAlu, pc),
    }
}

/// A sampling handler, as the perf kernel runs it: enter S-mode,
/// re-arm every fired counter at a small distance derived from the op
/// index (so both retire paths re-arm identically), burn handler
/// cycles, return to U-mode.
fn handle(core: &mut Core, fired: u32, op_index: u64) {
    core.set_mode(PrivMode::Supervisor);
    for idx in 0..NUM_COUNTERS {
        if fired >> idx & 1 == 1 {
            let dist = (op_index * 31 + idx as u64 * 7) % 300;
            core.pmu_mut().write(idx, u64::MAX - dist);
        }
    }
    core.idle(op_index % 40);
    core.set_mode(PrivMode::User);
}

/// One core with up to three counters armed at small random distances
/// (`minstret` keeps counting far from its wrap).
fn armed_core(spec: &PlatformSpec, rng: &mut Rng) -> Core {
    let mut core = Core::new(spec.clone());
    let pmu = core.pmu_mut();
    let armed = (1 + rng.below(3) as usize).min(pmu.num_hpm());
    for k in 0..armed {
        let idx = if k == 0 && rng.below(2) == 0 {
            COUNTER_CYCLE
        } else {
            3 + k
        };
        if idx != COUNTER_CYCLE {
            pmu.set_event(idx, Some(ARMABLE[rng.below(ARMABLE.len() as u64) as usize]));
        }
        pmu.set_irq_enable(idx, true);
        pmu.write(idx, u64::MAX - rng.below(400));
    }
    core
}

/// Final observable state of one run.
fn observe(core: &Core) -> (Vec<u64>, u32, u64, u64) {
    let counters = (0..NUM_COUNTERS).map(|i| core.pmu().read(i)).collect();
    (
        counters,
        core.pmu().overflow_status(),
        core.cycles(),
        core.instructions(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn block_deadline_commit_matches_per_op_retire(seed in 1u64..u64::MAX, len in 50usize..1500) {
        for spec in [
            PlatformSpec::x60(),
            PlatformSpec::c910(),
            PlatformSpec::u74(),
            PlatformSpec::i5_1135g7(),
        ] {
            let mut rng = Rng(seed);
            let mut serial = armed_core(&spec, &mut rng);
            let mut blocked = serial.clone();
            let ops: Vec<MachineOp> = (0..len as u64).map(|i| random_op(&mut rng, i)).collect();

            let mut serial_fires = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                let fired = serial.retire(op).overflow;
                if fired != 0 {
                    serial_fires.push((i, fired));
                    handle(&mut serial, fired, i as u64);
                }
            }

            let mut block_fires = Vec::new();
            let mut acc = BlockAcc::default();
            let mut i = 0;
            while i < ops.len() {
                let end = (i + 1 + rng.below(40) as usize).min(ops.len());
                blocked.block_begin_in(&mut acc, (end - i) as u32);
                for (k, op) in ops.iter().enumerate().take(end).skip(i) {
                    // Every apply lane, as the threaded engine uses them.
                    if op.class == OpClass::Branch {
                        blocked.block_apply_branch(op.pc, op.taken, &mut acc);
                    } else if op.mem.is_none() && op.flops == 0 {
                        blocked.block_apply_class(op.class, &mut acc);
                    } else {
                        blocked.block_apply(op, &mut acc);
                    }
                    if blocked.block_reached(&acc) {
                        let fired = blocked.retire_block(&mut acc).overflow;
                        if fired != 0 {
                            block_fires.push((k, fired));
                            handle(&mut blocked, fired, k as u64);
                        }
                        blocked.block_restart_in(&mut acc);
                    }
                }
                let tail = blocked.retire_block(&mut acc).overflow;
                prop_assert_eq!(tail, 0, "{}: a wrap escaped its deadline", spec.name);
                i = end;
            }

            prop_assert_eq!(&serial_fires, &block_fires, "{}: overflow ops", spec.name);
            prop_assert_eq!(observe(&serial), observe(&blocked), "{}: final state", spec.name);
        }
    }
}
