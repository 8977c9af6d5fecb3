//! The simulated core: retires machine ops, advances the timing model,
//! drives caches/branch prediction, and ticks the PMU.

use crate::branch::BranchPredictor;
use crate::cache::MemorySystem;
use crate::csr::{Csr, CsrError};
use crate::events::EventDeltas;
use crate::isa::IsaModel;
use crate::machine_op::{MachineOp, OpClass};
use crate::platform::{PlatformSpec, Unit};
use crate::pmu::Pmu;

/// Maximum ops one fused retire batch may contain — the shape the
/// precomputed conservative event bound ([`Core::fused_ready`]) is
/// sound for. The decode-time fusion pass caps its site width
/// (`MAX_FUSE_WIDTH` in `mperf-vm`) at this value.
pub const MAX_FUSED_BATCH: usize = 6;

/// Maximum architectural FLOPs one machine op inside a superblock may
/// carry: an FMA over the widest (255-lane) vector type is 510.
pub const MAX_OP_FLOPS: u32 = 512;

/// Largest block or chain of blocks, and largest DRAM backlog (cycles)
/// at its entry, that [`Core::block_begin_in`] runs unchecked on a quiet
/// PMU without working out its deadline: such a run advances any counter
/// by less than [`crate::pmu::QUIET_HEADROOM`] (`Core::new` asserts the
/// platform's per-op bounds keep it so). The backlog term of that bound
/// is the backlog at entry plus one occupancy per line queued since, so
/// it holds for a chain ([`Core::block_chain`]) as for one block.
pub const QUIET_BLOCK_OPS: u32 = 1 << 12;
const QUIET_BACKLOG: u64 = 1 << 24;

/// RISC-V privilege modes (the x86 model reuses User/Supervisor).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrivMode {
    User,
    Supervisor,
    Machine,
}

/// Result of retiring one machine op.
#[derive(Debug, Clone, Default)]
pub struct RetireInfo {
    /// Whole cycles the core advanced.
    pub cycles: u64,
    /// Instructions retired (ISA expansion applied).
    pub instructions: u64,
    /// Bitmask of PMU counters whose overflow interrupt fired.
    pub overflow: u32,
}

/// Deferred-retire accumulator for one superblock: ops apply their
/// timing/cache/branch effects immediately (so `Core::cycles` stays
/// exact mid-block) while their PMU event deltas accumulate here, to be
/// ticked once by [`Core::retire_block`]. Armed in place by
/// [`Core::block_begin_in`], which also sets the commit-time deadline
/// before which no counter can wrap; after each op the caller asks
/// [`Core::block_reached`] and, when it holds, commits through that op.
#[derive(Debug, Clone, Default)]
pub struct BlockAcc {
    /// Commit time at block entry (centi-cycles).
    start_centi: u64,
    /// Instruction events from the scalar class lanes
    /// ([`Core::block_apply_class`]) — the
    /// dominant case, kept out of the full [`EventDeltas`] bundle so an
    /// all-ALU block touches two words, not twelve.
    instructions: u64,
    /// Whether any applied op carried events beyond cycles/instructions
    /// (memory, branch, FP, vector) — selects the PMU tick lane, and
    /// marks `deltas` dirty (reset lazily by [`Core::block_begin_in`]).
    complex: bool,
    deltas: EventDeltas,
    /// Commit time (centi-cycles) at which some PMU counter may wrap;
    /// `u64::MAX` when the block provably ends before any can.
    deadline: u64,
    /// Machine ops the block applies at most (its deadline's bound).
    ops: u32,
    /// Machine ops further blocks may still add to this accumulator
    /// ([`Core::block_chain`]): what is left of [`QUIET_BLOCK_OPS`] when
    /// the block was armed quiet, zero otherwise.
    chain: u32,
}

impl BlockAcc {
    /// Whether an op of the open block can reach its deadline, so the
    /// caller must check [`Core::block_reached`] after each op; `false`
    /// when the block's worst case provably ends before any counter can
    /// wrap.
    #[inline]
    pub fn needs_check(&self) -> bool {
        self.deadline != u64::MAX
    }
}

/// One simulated hart.
#[derive(Debug, Clone)]
pub struct Core {
    pub spec: PlatformSpec,
    pub csr: Csr,
    pmu: Pmu,
    mem: MemorySystem,
    bp: BranchPredictor,
    isa: IsaModel,
    mode: PrivMode,
    /// Committed time in centi-cycles (in-order accumulator).
    centi: u64,
    /// Out-of-order per-unit occupancy accumulators (centi-cycles).
    unit_busy: [u64; Unit::COUNT],
    /// Issue-slot accumulator (centi-cycles).
    slots: u64,
    retired: u64,
    /// Centi-cycles one issue slot costs (`100 / issue_width`, floored at
    /// 1) — precomputed off the retire path.
    slot_unit: u64,
    /// Precomputed conservative event-total bound for one fused retire
    /// batch (≤ [`MAX_FUSED_BATCH`] ops, ≤ 1 scalar ≤ 2-line memory
    /// reference, ≤ 1 branch, no vector ops), *excluding* the DRAM queue
    /// backlog which is added dynamically — see [`Core::fused_ready`].
    fused_ub_static: u64,
    /// Like `fused_ub_static` but for memory-free batches (ALU/branch
    /// only): no cache/DRAM terms and no backlog needed, so the probe is
    /// a single compare — see [`Core::fused_ready_nomem`].
    fused_ub_nomem: u64,
    /// Non-cycle events one superblock op can add to any one counter —
    /// the part of a counter's advance the cycle deadline does not see.
    op_event_ub: u64,
    /// Whole cycles one superblock op can take, DRAM queueing aside —
    /// with the queue backlog, the bound that lets a block far from its
    /// deadline skip the per-op check.
    op_cycles_ub: u64,
    /// Upper bound on one line's DRAM channel occupancy in cycles.
    dram_occupancy: u64,
}

impl Core {
    /// Power on a core for `spec`.
    pub fn new(spec: PlatformSpec) -> Core {
        let isa = spec.isa_model();
        let slot_unit = (100 / spec.issue_width as u64).max(1);
        let core = Core {
            csr: Csr::new(spec.cpu_id),
            pmu: Pmu::new(spec.num_hpm_counters),
            mem: MemorySystem::new(spec.caches),
            bp: BranchPredictor::new(spec.predictor_index_bits),
            mode: PrivMode::User,
            centi: 0,
            unit_busy: [0; Unit::COUNT],
            slots: 0,
            retired: 0,
            slot_unit,
            fused_ub_static: fused_ub_static(&spec, &isa, slot_unit, true),
            fused_ub_nomem: fused_ub_static(&spec, &isa, slot_unit, false),
            op_event_ub: block_event_ub(&spec, &isa),
            op_cycles_ub: block_cycles_ub(&spec, &isa, slot_unit),
            dram_occupancy: Core::dram_occupancy_bound(&spec.caches),
            isa,
            spec,
        };
        // A quiet block's worst case (see `block_begin_in`):
        // QUIET_BLOCK_OPS × (op bounds + 2 × QUIET_BACKLOG + 4 ×
        // QUIET_BLOCK_OPS × occupancy) must stay below QUIET_HEADROOM.
        assert!(
            core.op_cycles_ub
                + core.op_event_ub
                + (QUIET_BLOCK_OPS as u64 * 4) * core.dram_occupancy
                < 1 << 26,
            "{}: per-op bounds too large for the quiet block shortcut",
            core.spec.name
        );
        core
    }

    /// Current privilege mode.
    pub fn mode(&self) -> PrivMode {
        self.mode
    }

    /// Switch privilege mode (ecall/sret boundaries in the SBI layer).
    pub fn set_mode(&mut self, mode: PrivMode) {
        self.mode = mode;
    }

    /// Committed whole cycles since power-on.
    pub fn cycles(&self) -> u64 {
        self.current_centi() / 100
    }

    /// Instructions retired since power-on.
    pub fn instructions(&self) -> u64 {
        self.retired
    }

    /// Shared PMU access (the SBI layer programs it through CSRs; tools
    /// read it through this for assertions).
    pub fn pmu(&self) -> &Pmu {
        &self.pmu
    }

    /// Mutable PMU access for the firmware layer.
    pub fn pmu_mut(&mut self) -> &mut Pmu {
        &mut self.pmu
    }

    /// Toggle the PMU's batched tick path (on by default; identical
    /// observable behaviour — see [`Pmu::set_batched`]).
    pub fn set_pmu_batching(&mut self, on: bool) {
        self.pmu.set_batched(on);
    }

    /// Memory-hierarchy statistics access.
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Flush caches and reset the branch predictor (between benchmark
    /// phases; the PMU and clocks are *not* reset).
    pub fn reset_microarch(&mut self) {
        self.mem.flush();
        self.bp.reset();
    }

    /// Read a CSR at the current privilege mode.
    ///
    /// # Errors
    /// Propagates [`CsrError`] (illegal instruction) on privilege or
    /// decode failures.
    pub fn csr_read(&self, addr: u16) -> Result<u64, CsrError> {
        self.csr.read(addr, self.mode, &self.pmu)
    }

    /// Read a CSR as if in `mode` (the firmware runs in M-mode while the
    /// core state says otherwise during a trap; this keeps the model
    /// simple without a full trap unit).
    pub fn csr_read_as(&self, addr: u16, mode: PrivMode) -> Result<u64, CsrError> {
        self.csr.read(addr, mode, &self.pmu)
    }

    /// Write a CSR as if in `mode`.
    ///
    /// # Errors
    /// Propagates [`CsrError`] on privilege or decode failures.
    pub fn csr_write_as(&mut self, addr: u16, value: u64, mode: PrivMode) -> Result<(), CsrError> {
        self.csr.write(addr, value, mode, &mut self.pmu)
    }

    fn current_centi(&self) -> u64 {
        if self.spec.out_of_order {
            let unit_max = self.unit_busy.iter().copied().max().unwrap_or(0);
            self.centi.max(unit_max).max(self.slots)
        } else {
            self.centi
        }
    }

    /// Retire one machine op: advance time, count events, tick the PMU.
    #[inline]
    pub fn retire(&mut self, op: &MachineOp) -> RetireInfo {
        // The dominant op shape (scalar ALU/move/addr/call classes: no
        // memory reference, no branch bookkeeping, no FLOPs, no
        // vec-instruction event) takes a slimmer path that skips the
        // full event bundle; identical arithmetic.
        if op.mem.is_none()
            && op.flops == 0
            && !matches!(op.class, OpClass::Branch)
            && !op.is_vector()
        {
            return self.retire_simple(op);
        }
        self.retire_full(op)
    }

    /// Fast path for non-memory, non-branch, non-FP ops.
    fn retire_simple(&mut self, op: &MachineOp) -> RetireInfo {
        let before = self.current_centi();
        let expansion = self.isa.expand(op.class);
        let inv_tp = self.spec.timing.inv_tp(op.class);
        let slot_cost = self.slot_unit * expansion.max(1) as u64;

        if self.spec.out_of_order {
            let unit = Unit::of(op.class);
            self.unit_busy[unit.index()] += inv_tp;
            self.slots += slot_cost;
        } else {
            self.centi += inv_tp.max(slot_cost);
        }

        let after = self.current_centi();
        let cycles = after / 100 - before / 100;
        self.retired += expansion as u64;

        let overflow = self
            .pmu
            .tick_batched_simple(cycles, expansion as u64, self.mode);
        RetireInfo {
            cycles,
            instructions: expansion as u64,
            overflow,
        }
    }

    fn retire_full(&mut self, op: &MachineOp) -> RetireInfo {
        let before = self.current_centi();
        let mut deltas = EventDeltas::default();
        self.apply_op(op, &mut deltas);
        deltas.cycles = self.current_centi() / 100 - before / 100;
        let overflow = self.pmu.tick_batched(&deltas, self.mode);
        RetireInfo {
            cycles: deltas.cycles,
            instructions: deltas.instructions,
            overflow,
        }
    }

    /// The tick-free, cycle-free body of one retire: advance the timing
    /// model, drive caches and branch prediction, and *accumulate* this
    /// op's non-cycle event deltas into `deltas` — without touching the
    /// PMU. Applying N ops in order and computing the cycle delta once is
    /// exactly N per-op retires: per-op cycle deltas telescope
    /// (`Σ (afterᵢ − beforeᵢ) = after_N − before_0`) and event counts are
    /// additive — the foundation of [`Core::retire_fused`]. Returns
    /// `true` when the op took the slim path (no events beyond
    /// cycles/instructions).
    #[inline]
    fn apply_op(&mut self, op: &MachineOp, deltas: &mut EventDeltas) -> bool {
        let expansion = self.isa.expand(op.class);
        let inv_tp = self.spec.timing.inv_tp(op.class);
        let slot_cost = self.slot_unit * expansion.max(1) as u64;
        deltas.instructions += expansion as u64;
        self.retired += expansion as u64;

        // The dominant shape (no memory, no branch, no FLOPs, no vector
        // event) skips the full event bundle; identical arithmetic to
        // the slow path below with every extra term zero.
        if op.mem.is_none()
            && op.flops == 0
            && !matches!(op.class, OpClass::Branch)
            && !op.is_vector()
        {
            if self.spec.out_of_order {
                self.unit_busy[Unit::of(op.class).index()] += inv_tp;
                self.slots += slot_cost;
            } else {
                self.centi += inv_tp.max(slot_cost);
            }
            return true;
        }

        let before = self.current_centi();
        if op.flops != 0 {
            // The PMU event applies the platform's overcount model
            // (speculation, masked lanes); see `fp_event_percent`.
            deltas.fp_ops += op.flops as u64 * self.spec.fp_event_percent as u64 / 100;
        }
        if op.is_vector() && expansion > 0 {
            deltas.vec_instructions += expansion as u64;
        }

        // Branch handling. A mispredict serializes the whole pipeline:
        // on the out-of-order model it becomes a floor on commit time
        // rather than occupancy on one unit.
        let mut stall_centi = 0u64;
        let mut mispredicted = false;
        if matches!(op.class, OpClass::Branch) {
            deltas.branches += 1;
            if op.taken {
                stall_centi += self.spec.taken_branch_bubble as u64 * 100;
            }
            if !self.bp.predict_and_update(op.pc, op.taken) {
                deltas.branch_misses += 1;
                mispredicted = true;
                if !self.spec.out_of_order {
                    stall_centi += self.spec.branch_mispredict_penalty as u64 * 100;
                }
            }
        }

        // Memory handling.
        if let Some(mem) = &op.mem {
            let ev = self.mem.access(mem, before);
            deltas.l1d_access += ev.l1_accesses;
            deltas.l1d_miss += ev.l1_misses;
            deltas.l2_miss += ev.l2_misses;
            deltas.dram_bytes += ev.dram_bytes;
            let miss_raw = ev.stall_cycles * 100;
            stall_centi += if self.spec.out_of_order {
                // L1-hit latency is fully hidden by the scheduler; miss
                // latency partially overlaps.
                miss_raw / self.spec.ooo_mem_overlap as u64
            } else {
                miss_raw + ev.hit_cycles * 100 + self.spec.load_use_penalty as u64 * 100
            };
            // Strided vector memory ops occupy the memory unit longer.
            if mem.lanes > 1 && !mem.is_unit_stride() {
                stall_centi += self.spec.strided_lane_penalty_centi as u64 * mem.lanes as u64;
            }
        }

        // Advance the clock model.
        if self.spec.out_of_order {
            let unit = Unit::of(op.class);
            self.unit_busy[unit.index()] += inv_tp + stall_centi;
            self.slots += slot_cost;
            if mispredicted {
                // Pipeline restart: every accumulator jumps to the
                // mispredict resolution point.
                let floor = self.current_centi() + self.spec.branch_mispredict_penalty as u64 * 100;
                self.centi = self.centi.max(floor);
                for u in &mut self.unit_busy {
                    *u = (*u).max(floor);
                }
                self.slots = self.slots.max(floor);
            }
        } else {
            self.centi += inv_tp.max(slot_cost) + stall_centi;
        }

        false
    }

    /// Whether the next fused batch (≤ [`MAX_FUSED_BATCH`] ops, ≤ 1
    /// scalar memory reference, ≤ 1 branch, no vector ops — the shapes
    /// the decode-time fusion pass emits) is guaranteed not to wrap any
    /// PMU counter, so it may retire through [`Core::retire_fused`] as
    /// one batched tick.
    ///
    /// The probe compares a conservative event-total upper bound
    /// (precomputed from the platform spec, plus the current DRAM queue
    /// backlog — the one component unbounded by the spec) against every
    /// armed counter's distance to overflow. `false` means a counter is
    /// near wrapping (or PMU batching is disabled): the caller must fall
    /// back to per-op [`Core::retire`] so the overflow interrupt is
    /// attributed to exactly the op that wraps — the same exactness rule
    /// the PMU enforces for single-op batching.
    #[inline]
    pub fn fused_ready(&mut self) -> bool {
        let ub = self.fused_ub_static + 2 * self.mem.backlog_cycles(self.current_centi());
        let mode = self.mode;
        self.pmu.batch_headroom(ub, mode)
    }

    /// [`Core::fused_ready`] for memory-free batches (compare-and-branch,
    /// bin+copy): the event bound has no cache/DRAM terms, so no backlog
    /// probe is needed — in steady state this is one compare.
    #[inline]
    pub fn fused_ready_nomem(&mut self) -> bool {
        let ub = self.fused_ub_nomem;
        let mode = self.mode;
        self.pmu.batch_headroom(ub, mode)
    }

    /// Retire a memory-free, branch-free, FLOP-free fused batch given
    /// just its constituent op classes — no [`MachineOp`]s are built.
    /// Arithmetic-identical to retiring each class through
    /// [`Core::retire`] (the slim path all such ops take), with the
    /// per-op cycle deltas telescoped into one and a single scalar PMU
    /// tick. Guard with [`Core::fused_ready_nomem`].
    ///
    /// This and [`Core::retire_fused_branch`] intentionally duplicate
    /// [`Core::apply_op`]'s timing arithmetic: skipping `MachineOp`
    /// construction and the full `EventDeltas` bundle is what makes the
    /// fused fast path actually faster than per-op retire. A timing
    /// change in `apply_op` must be mirrored here — the
    /// `specialized_fused_retires_match_per_op` test pins all three
    /// sites to per-op behaviour on every platform model.
    #[inline]
    pub fn retire_fused_simple(&mut self, classes: &[OpClass]) -> RetireInfo {
        let start = self.current_centi();
        let mut instr = 0u64;
        for &class in classes {
            let expansion = self.isa.expand(class);
            let inv_tp = self.spec.timing.inv_tp(class);
            let slot_cost = self.slot_unit * expansion.max(1) as u64;
            if self.spec.out_of_order {
                self.unit_busy[Unit::of(class).index()] += inv_tp;
                self.slots += slot_cost;
            } else {
                self.centi += inv_tp.max(slot_cost);
            }
            instr += expansion as u64;
        }
        self.retired += instr;
        let cycles = self.current_centi() / 100 - start / 100;
        let overflow = self.pmu.tick_batched_simple(cycles, instr, self.mode);
        debug_assert_eq!(
            overflow, 0,
            "guard retire_fused_simple with fused_ready_nomem"
        );
        RetireInfo {
            cycles,
            instructions: instr,
            overflow,
        }
    }

    /// Retire a fused branch-ending shape: the memory-free, branch-free
    /// `prefix` classes (scalar ALU constituents plus any elided-copy
    /// `Move`s, in stream order) followed by one branch at `pc` with
    /// outcome `taken`. Mirrors the per-op arithmetic (predictor update,
    /// taken bubble, mispredict penalty / pipeline-restart floor) with
    /// one combined PMU tick. Guard with [`Core::fused_ready_nomem`].
    /// Shares [`Core::retire_fused_simple`]'s duplication contract with
    /// `apply_op` (see its docs).
    pub fn retire_fused_branch(&mut self, prefix: &[OpClass], pc: u64, taken: bool) -> RetireInfo {
        let start = self.current_centi();
        let mut instr = 0u64;
        for &class in prefix {
            let expansion = self.isa.expand(class);
            let inv_tp = self.spec.timing.inv_tp(class);
            let slot_cost = self.slot_unit * expansion.max(1) as u64;
            if self.spec.out_of_order {
                self.unit_busy[Unit::of(class).index()] += inv_tp;
                self.slots += slot_cost;
            } else {
                self.centi += inv_tp.max(slot_cost);
            }
            instr += expansion as u64;
        }
        // The branch constituent (mirrors `apply_op`'s Branch handling).
        let expansion = self.isa.expand(OpClass::Branch);
        let inv_tp = self.spec.timing.inv_tp(OpClass::Branch);
        let slot_cost = self.slot_unit * expansion.max(1) as u64;
        let mut stall_centi = 0u64;
        let mut misses = 0u64;
        let mut mispredicted = false;
        if taken {
            stall_centi += self.spec.taken_branch_bubble as u64 * 100;
        }
        if !self.bp.predict_and_update(pc, taken) {
            misses = 1;
            mispredicted = true;
            if !self.spec.out_of_order {
                stall_centi += self.spec.branch_mispredict_penalty as u64 * 100;
            }
        }
        if self.spec.out_of_order {
            self.unit_busy[Unit::of(OpClass::Branch).index()] += inv_tp + stall_centi;
            self.slots += slot_cost;
            if mispredicted {
                let floor = self.current_centi() + self.spec.branch_mispredict_penalty as u64 * 100;
                self.centi = self.centi.max(floor);
                for u in &mut self.unit_busy {
                    *u = (*u).max(floor);
                }
                self.slots = self.slots.max(floor);
            }
        } else {
            self.centi += inv_tp.max(slot_cost) + stall_centi;
        }
        instr += expansion as u64;
        self.retired += instr;
        let cycles = self.current_centi() / 100 - start / 100;
        let deltas = EventDeltas {
            cycles,
            instructions: instr,
            branches: 1,
            branch_misses: misses,
            ..EventDeltas::default()
        };
        let overflow = self.pmu.tick_batched(&deltas, self.mode);
        debug_assert_eq!(
            overflow, 0,
            "guard retire_fused_branch with fused_ready_nomem"
        );
        RetireInfo {
            cycles,
            instructions: instr,
            overflow,
        }
    }

    /// Retire a fused superinstruction: apply every constituent op's
    /// timing/cache/branch effects *in order* (identical arithmetic to N
    /// [`Core::retire`] calls), then tick the PMU once with the combined
    /// deltas. Callers must check [`Core::fused_ready`] first — under
    /// that guard the combined tick cannot wrap a counter, so skipping
    /// the per-op ticks is observably exact (counters additive, cycles
    /// telescoping, no overflow to attribute).
    pub fn retire_fused(&mut self, ops: &[MachineOp]) -> RetireInfo {
        let before = self.current_centi();
        let mut deltas = EventDeltas::default();
        let mut all_simple = true;
        for op in ops {
            all_simple &= self.apply_op(op, &mut deltas);
        }
        let cycles = self.current_centi() / 100 - before / 100;
        deltas.cycles = cycles;
        // All-ALU batches (bin+copy and friends) carry only
        // cycle/instruction events: take the PMU's scalar fast lane.
        let overflow = if all_simple {
            self.pmu
                .tick_batched_simple(cycles, deltas.instructions, self.mode)
        } else {
            self.pmu.tick_batched(&deltas, self.mode)
        };
        debug_assert_eq!(
            overflow, 0,
            "retire_fused without fused_ready: overflow lost per-op attribution"
        );
        RetireInfo {
            cycles,
            instructions: deltas.instructions,
            overflow,
        }
    }

    /// Arm the deferred-retire accumulator for a superblock of at most
    /// `machine_ops` ops (resetting it in place — the full delta bundle
    /// is only cleared when the previous block dirtied it) and set its
    /// deadline. Apply ops through [`Core::block_apply`] (or the
    /// specialized class/branch lanes), ask [`Core::block_reached`]
    /// after each, and commit with [`Core::retire_block`].
    ///
    /// The deadline is the commit time at which the deferred tick could
    /// first wrap a counter. Near counters counting cycles in this mode
    /// (`CpuCycles`, the current mode's mode-cycle event: the x60 leader
    /// and the c910 direct sampler) wrap when the block's telescoped
    /// cycles exceed their headroom, which is exactly a clock deadline.
    /// Every other counter advances by at most the block's cycles plus
    /// `machine_ops × op_event_ub` other events, so its headroom minus
    /// that reserve bounds the cycles too. When the headroom is already
    /// inside the reserve — a near non-cycle counter, such as an
    /// `Instructions` sampler — the deadline is zero: every op reaches
    /// it and commits on its own. When even the block's worst-case
    /// cycles cannot reach the deadline it is `u64::MAX`, and
    /// [`BlockAcc::needs_check`] lets the caller skip the checks. That is
    /// the rule when no sampling counter is close (counting and roofline
    /// runs), which a quiet PMU ([`Pmu::quiet`]) settles without the
    /// arithmetic. A block armed quiet may be followed by more blocks
    /// into the same accumulator, up to [`QUIET_BLOCK_OPS`] in all (see
    /// [`Core::block_chain`]).
    #[inline(always)]
    pub fn block_begin_in(&mut self, acc: &mut BlockAcc, machine_ops: u32) {
        let start = self.current_centi();
        acc.start_centi = start;
        acc.instructions = 0;
        acc.ops = machine_ops;
        if acc.complex {
            acc.deltas = EventDeltas::default();
            acc.complex = false;
        }
        if machine_ops <= QUIET_BLOCK_OPS
            && self.pmu.quiet(self.mode)
            && self.mem.backlog_cycles(start) <= QUIET_BACKLOG
        {
            acc.deadline = u64::MAX;
            acc.chain = QUIET_BLOCK_OPS - machine_ops;
        } else {
            acc.deadline = self.block_deadline(start, machine_ops);
            acc.chain = 0;
        }
    }

    /// Whether a block of at most `machine_ops` ops, entered right after
    /// the open one ends, may run into the same accumulator — one commit
    /// for the chain instead of one per block. Only a block armed quiet
    /// chains, and only while the chain's ops stay within
    /// [`QUIET_BLOCK_OPS`]: the bound behind its `u64::MAX` deadline
    /// covers the whole chain, since counters are additive and the
    /// blocks' cycles telescope. On `true` the budget is spent; the
    /// caller runs the block and commits with [`Core::retire_block`]
    /// when the chain ends.
    #[inline(always)]
    pub fn block_chain(&self, acc: &mut BlockAcc, machine_ops: u32) -> bool {
        match acc.chain.checked_sub(machine_ops) {
            Some(left) => {
                acc.chain = left;
                true
            }
            None => false,
        }
    }

    /// [`Core::block_begin_in`]'s deadline for a block of at most
    /// `machine_ops` ops entered at `start` (centi-cycles), worked out
    /// from the PMU's [`Pmu::block_budget`].
    #[inline(never)]
    fn block_deadline(&mut self, start: u64, machine_ops: u32) -> u64 {
        let n = machine_ops as u64;
        let budget = self.pmu.block_budget(self.mode);
        let Some(events) = budget.events.checked_sub(n * self.op_event_ub) else {
            return 0;
        };
        // Cycles the block may run before a counter can wrap.
        let cycles = budget.cycles.min(events);
        // Worst-case block cycles: each op's own bound plus the DRAM
        // queue delay of its ≤ 2 lines, which is at most the backlog at
        // block entry plus one occupancy per line queued since.
        let backlog = self.mem.backlog_cycles(start);
        let worst = n
            .saturating_mul(
                self.op_cycles_ub
                    .saturating_add(2 * backlog)
                    .saturating_add(4 * n * self.dram_occupancy),
            )
            .saturating_add(1);
        if worst <= cycles {
            u64::MAX
        } else {
            // The counter wraps once `now / 100 - start / 100 > cycles`.
            (start / 100)
                .saturating_add(cycles)
                .saturating_add(1)
                .saturating_mul(100)
        }
    }

    /// Re-arm `acc` for the rest of a block after a commit through the
    /// op that reached its deadline (see [`Core::block_begin_in`]).
    #[inline]
    pub fn block_restart_in(&mut self, acc: &mut BlockAcc) {
        let ops = acc.ops;
        self.block_begin_in(acc, ops);
    }

    /// Whether the last op applied to `acc` reached its deadline: the
    /// caller must then commit through that op (and restart the block)
    /// before applying the next. Never true while
    /// [`BlockAcc::needs_check`] is false.
    #[inline(always)]
    pub fn block_reached(&self, acc: &BlockAcc) -> bool {
        self.current_centi() >= acc.deadline
    }

    /// Apply one op's timing/cache/branch effects now, accumulating its
    /// PMU event deltas into `acc` instead of ticking — the per-op half
    /// of [`Core::retire_block`]. Arithmetic-identical to
    /// [`Core::retire`] with the tick deferred.
    #[inline]
    pub fn block_apply(&mut self, op: &MachineOp, acc: &mut BlockAcc) {
        debug_assert!(
            op.flops <= MAX_OP_FLOPS && op.mem.is_none_or(|m| block_mem_ok(&m)),
            "superblocks take ≤ 2-line scalar or unit-stride memory references \
             and at most MAX_OP_FLOPS"
        );
        let instr_before = acc.deltas.instructions;
        let simple = self.apply_op(op, &mut acc.deltas);
        if simple {
            // A simple op's only event is its instruction count: move it
            // to the scalar lane so the accumulator keeps the
            // `!complex ⇒ deltas all-zero` invariant — the simple tick
            // path in `retire_block` reads only `acc.instructions`, and
            // the lazily-reset delta bundle must stay clean.
            acc.instructions += acc.deltas.instructions - instr_before;
            acc.deltas.instructions = instr_before;
        } else {
            acc.complex = true;
        }
    }

    /// [`Core::block_apply`] for one memory-free, branch-free,
    /// FLOP-free, scalar class, skipping `MachineOp` construction
    /// (mirrors [`Core::retire_fused_simple`]'s arithmetic minus the
    /// tick, and shares its duplication contract with `apply_op`).
    #[inline]
    pub fn block_apply_class(&mut self, class: OpClass, acc: &mut BlockAcc) {
        let expansion = self.isa.expand(class);
        let inv_tp = self.spec.timing.inv_tp(class);
        let slot_cost = self.slot_unit * expansion.max(1) as u64;
        if self.spec.out_of_order {
            self.unit_busy[Unit::of(class).index()] += inv_tp;
            self.slots += slot_cost;
        } else {
            self.centi += inv_tp.max(slot_cost);
        }
        self.retired += expansion as u64;
        acc.instructions += expansion as u64;
    }

    /// [`Core::block_apply`] for one branch at `pc` with outcome
    /// `taken` (mirrors the branch tail of [`Core::retire_fused_branch`]
    /// minus the tick).
    #[inline]
    pub fn block_apply_branch(&mut self, pc: u64, taken: bool, acc: &mut BlockAcc) {
        let expansion = self.isa.expand(OpClass::Branch);
        let inv_tp = self.spec.timing.inv_tp(OpClass::Branch);
        let slot_cost = self.slot_unit * expansion.max(1) as u64;
        let mut stall_centi = 0u64;
        let mut mispredicted = false;
        acc.deltas.branches += 1;
        acc.complex = true;
        if taken {
            stall_centi += self.spec.taken_branch_bubble as u64 * 100;
        }
        if !self.bp.predict_and_update(pc, taken) {
            acc.deltas.branch_misses += 1;
            mispredicted = true;
            if !self.spec.out_of_order {
                stall_centi += self.spec.branch_mispredict_penalty as u64 * 100;
            }
        }
        if self.spec.out_of_order {
            self.unit_busy[Unit::of(OpClass::Branch).index()] += inv_tp + stall_centi;
            self.slots += slot_cost;
            if mispredicted {
                let floor = self.current_centi() + self.spec.branch_mispredict_penalty as u64 * 100;
                self.centi = self.centi.max(floor);
                for u in &mut self.unit_busy {
                    *u = (*u).max(floor);
                }
                self.slots = self.slots.max(floor);
            }
        } else {
            self.centi += inv_tp.max(slot_cost) + stall_centi;
        }
        self.retired += expansion as u64;
        acc.deltas.instructions += expansion as u64;
    }

    /// Commit one superblock (or quiet chain of them), or its ops up to
    /// the one that reached the deadline: tick the PMU once with the
    /// accumulated event deltas (per-op cycle deltas telescope into
    /// `now − start`). This is observably exact. Counters are additive,
    /// and every op before the committed one stayed below the deadline,
    /// so no counter wrapped before it. The combined tick therefore fires
    /// exactly the counters the per-op path fires at the last op and
    /// leaves the same values. A trap mid-block commits a partial block
    /// the same way. The accumulator is left dirty; the next
    /// [`Core::block_begin_in`] resets it.
    pub fn retire_block(&mut self, acc: &mut BlockAcc) -> RetireInfo {
        let cycles = self.current_centi() / 100 - acc.start_centi / 100;
        let instructions;
        let overflow = if acc.complex {
            acc.deltas.cycles = cycles;
            acc.deltas.instructions += acc.instructions;
            instructions = acc.deltas.instructions;
            self.pmu.tick_batched(&acc.deltas, self.mode)
        } else {
            instructions = acc.instructions;
            self.pmu
                .tick_batched_simple(cycles, instructions, self.mode)
        };
        debug_assert!(
            overflow == 0 || self.current_centi() >= acc.deadline,
            "a counter wrapped inside a block before its deadline"
        );
        RetireInfo {
            cycles,
            instructions,
            overflow,
        }
    }

    /// Upper bound on the per-line DRAM channel occupancy in cycles.
    fn dram_occupancy_bound(caches: &crate::cache::CacheConfig) -> u64 {
        (crate::cache::LINE_BYTES as f64 / caches.dram_bytes_per_cycle) as u64 + 1
    }

    /// Advance the clock without retiring an instruction (idle cycles,
    /// e.g. while firmware "executes" conceptually).
    pub fn idle(&mut self, cycles: u64) -> u32 {
        let before = self.current_centi();
        if self.spec.out_of_order {
            let target = before + cycles * 100;
            self.centi = self.centi.max(target);
        } else {
            self.centi += cycles * 100;
        }
        let after = self.current_centi();
        let deltas = EventDeltas {
            cycles: after / 100 - before / 100,
            ..EventDeltas::default()
        };
        self.pmu.tick_batched(&deltas, self.mode)
    }
}

/// Conservative upper bound on the total PMU events (sum of every
/// [`EventDeltas`] field) one fused batch can generate, excluding the
/// dynamic DRAM queue backlog. Sound for the batch shapes the fusion
/// pass emits: ≤ [`MAX_FUSED_BATCH`] ops, ≤ 1 scalar (≤ 2-line) memory
/// reference, ≤ 1 branch, no vector ops, ≤ 1 architectural FLOP.
/// Overestimating only costs an occasional unnecessary per-op fallback
/// near a counter wrap — exactly where the unfused batched path
/// degrades too.
fn fused_ub_static(spec: &PlatformSpec, isa: &IsaModel, slot_unit: u64, with_mem: bool) -> u64 {
    let max_ops = MAX_FUSED_BATCH as u64;
    let max_exp = isa.max_expansion();
    // Per-op base cycle cost: worst-class inverse throughput plus issue
    // slots, rounded up.
    let per_op_cycles = (spec.timing.max_inv_tp() + slot_unit * max_exp) / 100 + 1;
    // Branch worst case: taken-fetch bubble plus the mispredict penalty,
    // counted twice to cover both the in-order stall and the
    // out-of-order pipeline-restart floor jump.
    let branch_cycles = spec.taken_branch_bubble as u64 + 2 * spec.branch_mispredict_penalty as u64;
    // Scalar memory worst case: 2 lines (an 8-byte scalar straddling a
    // boundary), each missing all the way to DRAM.
    let caches = &spec.caches;
    let line_cycles = caches.l1d.latency as u64
        + caches.l2.latency as u64
        + caches.dram_latency as u64
        + Core::dram_occupancy_bound(caches)
        + 1;
    let mem_cycles = if with_mem {
        2 * line_cycles + spec.load_use_penalty as u64
    } else {
        0
    };
    // Non-cycle events: instructions (MAX_FUSED_BATCH ops at max
    // expansion), branch + miss, FLOP events (1 architectural FLOP,
    // overcount < 4x), and per line one access/miss/L2-miss plus
    // LINE_BYTES of DRAM traffic.
    let mem_events = if with_mem {
        2 * (3 + crate::cache::LINE_BYTES)
    } else {
        0
    };
    let events = max_ops * max_exp + 2 + 4 + mem_events;
    max_ops * per_op_cycles + branch_cycles + mem_cycles + events + 16
}

/// Upper bound on the whole cycles one superblock op (≤ one memory
/// reference of ≤ 2 lines, see [`block_mem_ok`]) can take, DRAM queue
/// delay excluded: the worst unit and issue-slot cost, a taken branch's
/// bubble plus the mispredict penalty (twice, covering both the
/// in-order stall and the out-of-order pipeline-restart floor), and per
/// line the full L1/L2/DRAM latency chain plus the load-use penalty.
fn block_cycles_ub(spec: &PlatformSpec, isa: &IsaModel, slot_unit: u64) -> u64 {
    let caches = &spec.caches;
    (spec.timing.max_inv_tp() + slot_unit * isa.max_expansion()) / 100
        + 1
        + spec.taken_branch_bubble as u64
        + 2 * spec.branch_mispredict_penalty as u64
        + 2 * (caches.l1d.latency as u64
            + caches.l2.latency as u64
            + caches.dram_latency as u64
            + 1)
        + spec.load_use_penalty as u64
}

/// Whether a memory reference fits the superblock per-op bounds, which
/// charge each op for at most 2 lines: a scalar, or a unit-stride vector
/// of at most `LINE_BYTES`, at any address. An engine may put an op
/// inside a superblock only when its references pass this.
pub fn block_mem_ok(m: &crate::machine_op::MemRef) -> bool {
    (m.lanes <= 1 || m.is_unit_stride()) && m.total_bytes() <= crate::cache::LINE_BYTES
}

/// Upper bound on the non-cycle events one superblock op can add to a
/// single counter: instruction events and (vector ops) vector-instruction
/// events, each at maximum ISA expansion, a branch and its miss, the FP
/// events of [`MAX_OP_FLOPS`], and for a memory reference of ≤ 2 lines
/// (a scalar, or a unit-stride vector of ≤ `LINE_BYTES`, see
/// [`block_mem_ok`]) per line an access, a miss, an L2 miss and
/// `LINE_BYTES` of DRAM traffic.
fn block_event_ub(spec: &PlatformSpec, isa: &IsaModel) -> u64 {
    let instructions = isa.max_expansion();
    let vec_instructions = isa.max_expansion();
    instructions
        + vec_instructions
        + 2
        + MAX_OP_FLOPS as u64 * spec.fp_event_percent as u64 / 100
        + 2 * (3 + crate::cache::LINE_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine_op::MemRef;
    use crate::platform::PlatformSpec;

    fn x60() -> Core {
        Core::new(PlatformSpec::x60())
    }

    fn i5() -> Core {
        Core::new(PlatformSpec::i5_1135g7())
    }

    #[test]
    fn retiring_advances_cycles_and_instret() {
        let mut c = x60();
        for i in 0..100 {
            c.retire(&MachineOp::simple(OpClass::IntAlu, i));
        }
        assert_eq!(c.instructions(), 100);
        // Dual-issue: 100 ALU ops ≈ 50 cycles.
        assert!(c.cycles() >= 50 && c.cycles() <= 60, "{}", c.cycles());
        assert_eq!(c.pmu().read(crate::pmu::COUNTER_INSTRET), 100);
        assert_eq!(c.pmu().read(crate::pmu::COUNTER_CYCLE), c.cycles());
    }

    #[test]
    fn ooo_overlaps_int_and_fp_work() {
        let mut c = i5();
        // Interleave 1000 int + 1000 fp ops: with separate units the total
        // should be far less than the sum of both streams serialized.
        for i in 0..1000 {
            c.retire(&MachineOp::simple(OpClass::IntAlu, i));
            c.retire(&MachineOp::simple(OpClass::FpFma, i).with_flops(2));
        }
        // Int: 1000*0.25c = 250c; Fp: 1000*0.5c = 500c; slots: 2000*?/5.
        // x86 IntAlu expands 2.5x -> slots dominate: ~(2500+1000)*20 = 700c.
        let cyc = c.cycles();
        assert!(cyc < 900, "OoO should overlap units: {cyc}");
        assert!(cyc >= 500, "bounded below by the FP stream: {cyc}");
    }

    #[test]
    fn in_order_serializes() {
        let mut c = x60();
        for i in 0..1000 {
            c.retire(&MachineOp::simple(OpClass::IntAlu, i));
            c.retire(&MachineOp::simple(OpClass::FpFma, i).with_flops(2));
        }
        // In-order: 1000*(0.5) + 1000*(1.0) = 1500 cycles.
        let cyc = c.cycles();
        assert!((1480..=1550).contains(&cyc), "{cyc}");
    }

    #[test]
    fn branch_misses_cost_cycles() {
        let mut c = x60();
        let mut x: u64 = 12345;
        for i in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            let op = MachineOp::simple(OpClass::Branch, 0x40).with_taken(x & 1 == 0);
            c.retire(&op);
            let _ = i;
        }
        let cycles_random = c.cycles();

        let mut c2 = x60();
        for _ in 0..2000 {
            c2.retire(&MachineOp::simple(OpClass::Branch, 0x40).with_taken(true));
        }
        let cycles_predictable = c2.cycles();
        assert!(
            cycles_random > cycles_predictable * 3,
            "mispredicts must hurt: {cycles_random} vs {cycles_predictable}"
        );
        assert!(c.pmu().read(3) == 0, "hpm3 unprogrammed stays 0");
    }

    #[test]
    fn memory_misses_count_and_stall() {
        let mut c = x60();
        // Stream over 1 MiB: mostly misses.
        for i in 0..4096u64 {
            let op =
                MachineOp::simple(OpClass::Load, i).with_mem(MemRef::scalar(i * 256, 8, false));
            c.retire(&op);
        }
        let (acc, miss) = c.mem().l1d_stats();
        assert_eq!(acc, 4096);
        assert!(miss > 4000, "strided stream misses: {miss}");
        // Cycles dominated by memory stalls, far above 4096 * 1c.
        assert!(c.cycles() > 100_000, "{}", c.cycles());
    }

    #[test]
    fn mode_cycles_accumulate_by_mode() {
        let mut c = x60();
        let ev = crate::events::HwEvent::UModeCycles;
        c.pmu_mut().set_event(3, Some(ev));
        c.retire(&MachineOp::simple(OpClass::IntAlu, 0));
        c.retire(&MachineOp::simple(OpClass::IntAlu, 1));
        let u_cycles = c.pmu().read(3);
        c.set_mode(PrivMode::Machine);
        c.idle(100);
        assert_eq!(c.pmu().read(3), u_cycles, "frozen while in M-mode");
        assert_eq!(c.pmu().read(0), u_cycles + 100, "mcycle keeps counting");
    }

    #[test]
    fn overflow_interrupt_plumbs_through_retire() {
        let mut c = x60();
        c.pmu_mut()
            .set_event(3, Some(crate::events::HwEvent::UModeCycles));
        c.pmu_mut().set_irq_enable(3, true);
        c.pmu_mut().write(3, (-50i64) as u64);
        let mut fired = false;
        for i in 0..200 {
            let info = c.retire(&MachineOp::simple(OpClass::IntAlu, i));
            if info.overflow & (1 << 3) != 0 {
                fired = true;
                break;
            }
        }
        assert!(fired, "u_mode_cycle overflow must fire");
    }

    #[test]
    fn isa_expansion_differs_between_platforms() {
        let mut rv = x60();
        let mut x86 = i5();
        for i in 0..800 {
            rv.retire(&MachineOp::simple(OpClass::IntAlu, i));
            x86.retire(&MachineOp::simple(OpClass::IntAlu, i));
            rv.retire(&MachineOp::simple(OpClass::AddrCalc, i));
            x86.retire(&MachineOp::simple(OpClass::AddrCalc, i));
        }
        // RISC-V: 1600 instructions. x86: 800*2.5 + 0 = 2000.
        assert_eq!(rv.instructions(), 1600);
        assert_eq!(x86.instructions(), 2000);
    }

    /// Regression test: flop-less vector ops (integer VecAlu, Splat and
    /// integer Reduce via VecShuffle) must still count vec-instruction
    /// events — the scalar retire fast path once swallowed them.
    #[test]
    fn flopless_vector_ops_count_vec_instructions() {
        let mut c = x60();
        c.pmu_mut()
            .set_event(3, Some(crate::events::HwEvent::VecInstructions));
        for i in 0..10 {
            c.retire(&MachineOp::simple(OpClass::VecShuffle, i));
            c.retire(&MachineOp::simple(OpClass::VecAlu, i));
        }
        assert_eq!(c.pmu().read(3), 20, "vector ops without flops must count");
    }

    /// `retire_fused` must be arithmetic-identical to retiring the same
    /// ops one by one: cycles, instructions, PMU counters, cache stats,
    /// and branch-predictor state all agree on every platform model.
    #[test]
    fn fused_retire_matches_per_op_retire() {
        for spec in [
            PlatformSpec::x60(),
            PlatformSpec::c910(),
            PlatformSpec::u74(),
            PlatformSpec::i5_1135g7(),
        ] {
            let mut fused = Core::new(spec.clone());
            let mut serial = Core::new(spec.clone());
            for c in [&mut fused, &mut serial] {
                c.pmu_mut()
                    .set_event(3, Some(crate::events::HwEvent::L1dMiss));
            }
            let mut x: u64 = 0x9e37_79b9;
            for i in 0..4_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                // A mix of the batch shapes the fusion pass emits:
                // addr+load, cmp+branch, and bin+move pairs/triples.
                let batch: Vec<MachineOp> = match x % 3 {
                    0 => vec![
                        MachineOp::simple(OpClass::AddrCalc, i % 64),
                        MachineOp::simple(OpClass::Load, i % 64 + 1).with_mem(MemRef::scalar(
                            0x2000 + (x % 4096) * 8,
                            8,
                            false,
                        )),
                    ],
                    1 => vec![
                        MachineOp::simple(OpClass::IntAlu, i % 64),
                        MachineOp::simple(OpClass::IntAlu, i % 64 + 1),
                        MachineOp::simple(OpClass::Branch, i % 64 + 2).with_taken(x & 2 == 0),
                    ],
                    _ => vec![
                        MachineOp::simple(OpClass::FpAdd, i % 64).with_flops(1),
                        MachineOp::simple(OpClass::Move, i % 64 + 1),
                    ],
                };
                assert!(fused.fused_ready(), "no counter is armed near wrap");
                let info = fused.retire_fused(&batch);
                assert_eq!(info.overflow, 0);
                for op in &batch {
                    serial.retire(op);
                }
                assert_eq!(fused.cycles(), serial.cycles(), "{} step {i}", spec.name);
            }
            assert_eq!(fused.instructions(), serial.instructions(), "{}", spec.name);
            for idx in 0..crate::pmu::NUM_COUNTERS {
                assert_eq!(
                    fused.pmu().read(idx),
                    serial.pmu().read(idx),
                    "{} counter {idx}",
                    spec.name
                );
            }
            assert_eq!(fused.mem().l1d_stats(), serial.mem().l1d_stats());
            assert_eq!(fused.mem().l2_stats(), serial.mem().l2_stats());
            assert_eq!(
                fused.mem().dram_bytes_total(),
                serial.mem().dram_bytes_total()
            );
        }
    }

    /// The specialized fused entry points (`retire_fused_simple`,
    /// `retire_fused_branch`) must also be arithmetic-identical to
    /// per-op retire — including predictor state, which the serial core
    /// trains identically over randomized branch outcomes.
    #[test]
    fn specialized_fused_retires_match_per_op() {
        for spec in [
            PlatformSpec::x60(),
            PlatformSpec::c910(),
            PlatformSpec::u74(),
            PlatformSpec::i5_1135g7(),
        ] {
            let mut fused = Core::new(spec.clone());
            let mut serial = Core::new(spec.clone());
            let mut x: u64 = 0x1234_5678;
            for i in 0..6_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                match x % 4 {
                    0 => {
                        assert!(fused.fused_ready_nomem());
                        fused.retire_fused_simple(&[OpClass::IntMul, OpClass::Move]);
                        serial.retire(&MachineOp::simple(OpClass::IntMul, i % 64));
                        serial.retire(&MachineOp::simple(OpClass::Move, i % 64 + 1));
                    }
                    1 => {
                        let pc = i % 32;
                        let taken = x & 2 == 0;
                        assert!(fused.fused_ready_nomem());
                        fused.retire_fused_branch(&[OpClass::IntAlu], pc, taken);
                        serial.retire(&MachineOp::simple(OpClass::IntAlu, pc + 64));
                        serial.retire(&MachineOp::simple(OpClass::Branch, pc).with_taken(taken));
                    }
                    2 => {
                        let pc = i % 32;
                        let taken = x & 4 == 0;
                        assert!(fused.fused_ready_nomem());
                        fused.retire_fused_branch(&[OpClass::IntAlu, OpClass::IntAlu], pc, taken);
                        for k in 0..2 {
                            serial.retire(&MachineOp::simple(OpClass::IntAlu, pc + k));
                        }
                        serial.retire(&MachineOp::simple(OpClass::Branch, pc).with_taken(taken));
                    }
                    _ => {
                        // A coalesced back edge: inc + elided-copy Move +
                        // cmp + branch, as the regalloc'd decode emits.
                        let pc = i % 32;
                        let taken = x & 8 == 0;
                        assert!(fused.fused_ready_nomem());
                        fused.retire_fused_branch(
                            &[OpClass::IntAlu, OpClass::Move, OpClass::IntAlu],
                            pc,
                            taken,
                        );
                        serial.retire(&MachineOp::simple(OpClass::IntAlu, pc + 64));
                        serial.retire(&MachineOp::simple(OpClass::Move, pc + 65));
                        serial.retire(&MachineOp::simple(OpClass::IntAlu, pc + 66));
                        serial.retire(&MachineOp::simple(OpClass::Branch, pc).with_taken(taken));
                    }
                }
                assert_eq!(fused.cycles(), serial.cycles(), "{} step {i}", spec.name);
            }
            assert_eq!(fused.instructions(), serial.instructions(), "{}", spec.name);
            for idx in 0..crate::pmu::NUM_COUNTERS {
                assert_eq!(
                    fused.pmu().read(idx),
                    serial.pmu().read(idx),
                    "{} counter {idx}",
                    spec.name
                );
            }
        }
    }

    /// Superblock retire (`block_begin`/`block_apply*`/`retire_block`)
    /// must be arithmetic-identical to per-op retire: cycles,
    /// instructions, PMU counters, cache stats, and predictor state all
    /// agree on every platform model, for blocks mixing ALU, memory,
    /// FLOP, and branch ops applied through every lane of the API.
    #[test]
    fn block_retire_matches_per_op_retire() {
        for spec in [
            PlatformSpec::x60(),
            PlatformSpec::c910(),
            PlatformSpec::u74(),
            PlatformSpec::i5_1135g7(),
        ] {
            let mut blocked = Core::new(spec.clone());
            let mut serial = Core::new(spec.clone());
            for c in [&mut blocked, &mut serial] {
                c.pmu_mut()
                    .set_event(3, Some(crate::events::HwEvent::L1dMiss));
            }
            let mut x: u64 = 0xdead_beef;
            let mut acc = BlockAcc::default();
            for i in 0..3_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                let ops: Vec<MachineOp> = match x % 3 {
                    0 => vec![
                        MachineOp::simple(OpClass::IntAlu, i % 64),
                        MachineOp::simple(OpClass::AddrCalc, i % 64 + 1),
                        MachineOp::simple(OpClass::Load, i % 64 + 2).with_mem(MemRef::scalar(
                            0x4000 + (x % 2048) * 8,
                            8,
                            false,
                        )),
                        MachineOp::simple(OpClass::Move, i % 64 + 3),
                    ],
                    1 => vec![
                        MachineOp::simple(OpClass::FpFma, i % 64).with_flops(2),
                        MachineOp::simple(OpClass::IntMul, i % 64 + 1),
                        MachineOp::simple(OpClass::Branch, i % 64 + 2).with_taken(x & 2 == 0),
                    ],
                    _ => vec![
                        MachineOp::simple(OpClass::IntAlu, i % 64),
                        MachineOp::simple(OpClass::IntAlu, i % 64 + 1),
                        MachineOp::simple(OpClass::Move, i % 64 + 2),
                    ],
                };
                blocked.block_begin_in(&mut acc, ops.len() as u32);
                for op in &ops {
                    // Exercise all three apply lanes. No counter is near
                    // its wrap, so no op reaches the deadline.
                    if matches!(op.class, OpClass::Branch) {
                        blocked.block_apply_branch(op.pc, op.taken, &mut acc);
                    } else if op.mem.is_none() && op.flops == 0 && x.is_multiple_of(2) {
                        blocked.block_apply_class(op.class, &mut acc);
                    } else {
                        blocked.block_apply(op, &mut acc);
                    }
                    assert!(!blocked.block_reached(&acc), "{} step {i}", spec.name);
                }
                let info = blocked.retire_block(&mut acc);
                assert_eq!(info.overflow, 0);
                for op in &ops {
                    serial.retire(op);
                }
                assert_eq!(blocked.cycles(), serial.cycles(), "{} step {i}", spec.name);
                // PMU counters must agree after *every* block commit —
                // an instruction-event leak between the simple and
                // complex tick lanes once cancelled out across blocks
                // and survived the end-of-run comparison below.
                for idx in [0usize, 2, 3] {
                    assert_eq!(
                        blocked.pmu().read(idx),
                        serial.pmu().read(idx),
                        "{} counter {idx} at step {i}",
                        spec.name
                    );
                }
            }
            assert_eq!(
                blocked.instructions(),
                serial.instructions(),
                "{}",
                spec.name
            );
            for idx in 0..crate::pmu::NUM_COUNTERS {
                assert_eq!(
                    blocked.pmu().read(idx),
                    serial.pmu().read(idx),
                    "{} counter {idx}",
                    spec.name
                );
            }
            assert_eq!(blocked.mem().l1d_stats(), serial.mem().l1d_stats());
            assert_eq!(blocked.mem().l2_stats(), serial.mem().l2_stats());
        }
    }

    /// A near cycle counter turns into a block deadline that the op
    /// wrapping it — and no earlier op — reaches; committing through
    /// that op fires the overflow. A block that cannot reach the
    /// deadline needs no check at all, while a near non-cycle counter or
    /// disabled batching makes every op reach it (commit per op).
    #[test]
    fn block_deadline_lands_on_the_wrapping_op() {
        let mut c = x60();
        c.pmu_mut()
            .set_event(3, Some(crate::events::HwEvent::CpuCycles));
        c.pmu_mut().set_irq_enable(3, true);
        c.pmu_mut().write(3, (-8i64) as u64);
        let mut serial = c.clone();
        let mut acc = BlockAcc::default();
        c.block_begin_in(&mut acc, 64);
        let mut pc = 0;
        loop {
            let op = MachineOp::simple(OpClass::IntMul, pc);
            c.block_apply_class(op.class, &mut acc);
            let fired = serial.retire(&op).overflow;
            if c.block_reached(&acc) {
                assert_eq!(c.retire_block(&mut acc).overflow, fired);
                assert_ne!(fired, 0, "the deadline op is the wrapping op");
                break;
            }
            assert_eq!(fired, 0, "op {pc} wrapped before the deadline");
            pc += 1;
        }
        assert_eq!(c.pmu().read(3), serial.pmu().read(3));
        assert_eq!(c.cycles(), serial.cycles());

        c.pmu_mut().write(3, (-10_000_000i64) as u64);
        c.block_begin_in(&mut acc, 64);
        assert_eq!(
            acc.deadline,
            u64::MAX,
            "the block ends long before the wrap"
        );
        c.retire_block(&mut acc);

        c.pmu_mut()
            .set_event(4, Some(crate::events::HwEvent::Instructions));
        c.pmu_mut().write(4, (-1_000i64) as u64);
        c.block_begin_in(&mut acc, 4);
        c.block_apply_class(OpClass::IntAlu, &mut acc);
        assert!(c.block_reached(&acc));
        c.retire_block(&mut acc);

        c.pmu_mut().set_event(4, None);
        c.set_pmu_batching(false);
        c.block_begin_in(&mut acc, 4);
        c.block_apply_class(OpClass::IntAlu, &mut acc);
        assert!(c.block_reached(&acc));
        c.retire_block(&mut acc);
    }

    /// Near a programmed overflow, `fused_ready` must refuse the batch so
    /// the caller degrades to per-op retire (exact overflow attribution).
    #[test]
    fn fused_ready_refuses_near_overflow() {
        let mut c = x60();
        c.pmu_mut()
            .set_event(3, Some(crate::events::HwEvent::CpuCycles));
        c.pmu_mut().set_irq_enable(3, true);
        c.pmu_mut().write(3, (-8i64) as u64); // 8 events from wrapping
        assert!(!c.fused_ready(), "8 events of headroom is inside the bound");
        // With a huge period the batch is safe again.
        c.pmu_mut().write(3, (-10_000_000i64) as u64);
        assert!(c.fused_ready());
        // And with PMU batching disabled (the seed configuration) fused
        // retire must always fall back.
        c.set_pmu_batching(false);
        assert!(!c.fused_ready());
    }

    /// Regression test: a block containing only *simple* ops applied
    /// through the general `block_apply` lane (not the class lane) must
    /// still tick their instruction events — `apply_op` records them in
    /// the delta bundle, and `block_apply` has to move them to the
    /// scalar lane the simple commit path reads, or they are silently
    /// dropped (and the stale bundle later double-ticks in a complex
    /// block).
    #[test]
    fn block_apply_simple_ops_keep_instruction_events() {
        let mut blocked = x60();
        let mut serial = x60();
        let mut acc = BlockAcc::default();
        blocked.block_begin_in(&mut acc, 2);
        for pc in 0..2u64 {
            blocked.block_apply(&MachineOp::simple(OpClass::IntAlu, pc), &mut acc);
            serial.retire(&MachineOp::simple(OpClass::IntAlu, pc));
        }
        blocked.retire_block(&mut acc);
        assert_eq!(blocked.pmu().read(2), serial.pmu().read(2), "instret");
        assert_eq!(blocked.pmu().read(0), serial.pmu().read(0), "cycles");
    }

    #[test]
    fn idle_advances_clock_only() {
        let mut c = x60();
        c.idle(500);
        assert_eq!(c.cycles(), 500);
        assert_eq!(c.instructions(), 0);
    }
}
