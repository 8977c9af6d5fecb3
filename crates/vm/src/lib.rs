//! # mperf-vm — MIR execution engine over the simulated hardware
//!
//! Executes [`mperf_ir`] modules, lowering each MIR instruction to
//! machine operations (with per-ISA expansion) that retire on a
//! [`mperf_sim::Core`]. This ties the two measurement paths of the paper
//! together on a single execution:
//!
//! - **PMU path**: every retired op advances the core's counters;
//!   overflow interrupts are routed to an attached
//!   [`mperf_event::PerfKernel`] together with the interrupted guest PC
//!   and call chain, so sampling profilers see real stacks.
//! - **Compiler path**: `ProfCount` instructions and the
//!   `mperf.loop_begin` / `mperf.loop_end` / `mperf.is_instrumented`
//!   host calls drive the [`RooflineRuntime`], accumulating the
//!   bytes/int-ops/FLOP tallies the instrumentation pass planted.
//!
//! ## The decode → execute pipeline
//!
//! Execution runs on one of three engines (see [`interp::Engine`]):
//!
//! 1. **Decode** ([`decode`]): a one-time pass flattens each function's
//!    blocks into a dense `Vec<DecodedOp>` with pre-resolved jump
//!    targets (flat op indices), precomputed synthetic pcs, op classes,
//!    and FLOP counts, and host callees resolved to dense ids — then
//!    runs register allocation, fusion, validation, and the threaded
//!    template compile (see *Threaded templates & superblocks*). The
//!    result ([`DecodedModule`]) borrows nothing and is `Arc`-shared
//!    across VMs sweeping the same workload — including VMs on other
//!    threads (see *The `Arc`/`Send` contract* below).
//! 2. **Execute** ([`Vm::call`]): the default **threaded** engine calls
//!    through each function's pre-bound template array and retires
//!    straight-line superblocks as one PMU batch; the **decoded**
//!    engine (the first-generation fast engine) dispatches over
//!    `&[DecodedOp]` by index with a dense `match`; the **reference**
//!    engine (the original structure-walking interpreter) stays the
//!    semantic baseline. All three produce bit-identical `ExecStats`,
//!    cycles, and PMU state; guest frames slice a contiguous register
//!    stack, so calls do not allocate on any engine.
//!
//! ## Register allocation
//!
//! Before fusion, a decode-time copy-coalescing pass ([`regalloc`])
//! attacks the dominant op the frontend emits: the `copy dst = src`
//! behind every `var = expr` assignment (~1/3 of the dynamic stream on
//! assignment-heavy code). Per function it:
//!
//! 1. computes backward **liveness** over the flat op stream (uses =
//!    operand registers, defs = destinations incl. call return slots;
//!    `Br`/`CondBr` follow their pre-resolved targets, `Ret` ends the
//!    walk) to a fixpoint;
//! 2. builds a register **interference** relation: each op's defs
//!    conflict with everything live-out of the op (minus the copy's
//!    own `dst`/`src` pair at the copy itself, where both hold the
//!    same value), same-op defs conflict pairwise, and parameters
//!    conflict pairwise and with everything live-in at entry;
//! 3. greedily **coalesces** each reg-to-reg copy whose source and
//!    destination classes don't interfere (union-find with per-class
//!    interference sets), then **compacts** register numbers so frames
//!    slice a smaller register-stack window.
//!
//! A copy is elidable exactly when its operands end up in one class:
//! the producer already wrote the shared slot, so the slot is
//! rewritten to [`decode::DecodedOp::ElidedCopy`] — a retire-only op.
//!
//! **The observable-invariance contract** (same as fusion's): the
//! elided copy still retires the same `Move` machine op at the same
//! pc, so cycle counts, instruction counts, PMU counter files, and
//! sampling IPs/callchains are bit-identical to the uncoalesced and
//! reference streams — coalescing removes *our* dispatch cost (the
//! `Value` clone and register write), never modeled work. Merged
//! classes always carry one value type (unions are driven only by
//! type-checked copies), so the raw-`i64` register lanes stay sound,
//! and reads of never-written registers still see the zero-initialized
//! slot (a def that could clobber it would have interfered). The
//! regalloc × fusion × engine equivalence matrix is property-tested in
//! `tests/properties.rs` on all four platform models, including traps
//! landing on elided-copy slots. Static coalescing rates live in
//! [`RegallocStats`] on the decode; dynamic copy traffic (moved vs
//! elided) in [`interp::RegallocDynamics`] on the VM. `--no-regalloc`
//! (CLI) / [`Vm::set_regalloc`] / [`DecodeConfig`] disable the pass
//! for bisection.
//!
//! ## Superinstruction fusion
//!
//! After register allocation, a decode-time peephole pass rewrites the
//! hottest adjacent op pairs/triples into superinstructions with
//! dedicated handlers ([`decode::Fused`]); the decoded hot loop itself
//! is shaped for jump-table dispatch with **no per-op bounds checks**
//! — every index (jump targets, register numbers, callee/host/fused
//! ids) is pinned once per decode by `validate_func`, and
//! scalar-integer ops are type-specialized at decode time
//! (`BinI`/`CmpI`) so the handlers move raw `i64`s instead of cloning
//! `Value` enums. Elided copies are transparent to the matcher:
//! constituents may be separated by (or trailed by) `ElidedCopy` slots,
//! which join the batch as `Move` ticks at their own pcs — so
//! `inc+cmp+br` fires across a coalesced copy and a bare
//! `bin + elided-copy` still batches as `bin+copy`
//! ([`decode::FusedSite`] records the covered window).
//!
//! | pattern ([`decode::FusePattern`]) | shape | width |
//! |---|---|---|
//! | `addr+load` | `ptradd` + scalar `load` | 2 |
//! | `addr+store` | `ptradd` + scalar `store` | 2 |
//! | `cmp+br` | `cmp` + `condbr` (compare-and-branch) | 2 |
//! | `load+op` | scalar `load` + bin consuming it | 2 |
//! | `bin+copy` | bin + `copy` of its result (assignments) | 2 |
//! | `inc+cmp+br` | `add/sub` + `cmp` + `condbr` (counted-loop back edge) | 3 |
//! | `addr+load+op` | `ptradd` + scalar `load` + bin | 3 |
//!
//! **The observables-invariance contract.** Fusion changes speed, never
//! observables: return values, [`ExecStats`], cycle counts, PMU counter
//! files, and the exact op at which an overflow interrupt fires (hence
//! sampling IPs/callchains) are bit-identical to the unfused and
//! reference engines — property-tested in `tests/properties.rs` on all
//! four platform models. Three mechanisms enforce it:
//!
//! - a fused batch retires through `Core::retire_fused*` only when
//!   `Core::fused_ready*` proves no PMU counter can wrap within a
//!   conservative event bound (the batched PMU's per-counter headroom,
//!   extended to multi-op batches); otherwise the superinstruction
//!   **bails** — executes its first constituent unfused and resumes at
//!   the original next op, which is still present in the stream
//!   (fusion replaces only the pattern's first slot);
//! - trap-capable interiors never fuse (`div`/`rem`) or pre-check
//!   (loads/stores probe bounds and bail on a would-trap access), so
//!   trap points and partial state match op-for-op; intermediate fuel
//!   exhaustion bails the same way;
//! - an intermediate register write is skipped only when decode-time
//!   read counting proves every read of that register is substituted
//!   inside the handler.
//!
//! **Adding a pattern**: extend [`decode::FusePattern`] (+ `ALL`,
//! `index`, `name`, `width`) and [`decode::Fused`], recognize the shape
//! in `pattern_at` (longest-first; compute `write_*` flags from the
//! read counts), validate its payload in `validate_func`, and give it a
//! handler in `interp::Vm::run_decoded` with a bail path that executes
//! exactly the first constituent. The equivalence properties then gate
//! the observables for free. Static site counts live in
//! [`decode::FusionStats`] on the decode; dynamic coverage in
//! [`interp::FusionDynamics`] on the VM (deliberately outside
//! `ExecStats`). `--no-fuse` (CLI) / [`Vm::set_fusion`] /
//! [`decode_module_cfg`] disable the pass for bisection.
//!
//! ## Threaded templates & superblocks
//!
//! The threaded engine (the default; [`threaded`]) is the baseline
//! template-JIT layer over the coalesced + fused stream — the substrate
//! a future native JIT would drop into (same compile point, same
//! observable contract, fn pointers swapped for emitted code).
//!
//! **Template binding rules.** At decode time every op slot is lowered
//! to a pre-bound template: a `fn` pointer plus a packed operand struct
//! (`threaded::TArgs`). Operand immediates are materialized into
//! per-function constant pools, so every operand is one `u32` slot
//! (register index, or pool index with the high bit set) and the hot
//! loop does no `Operand` enum unpacking; the synthetic pc rides in the
//! template. Type-specialized scalar-integer ops get one monomorphic
//! thunk per operator (`t_bini::<B_ADD>`, …) and scalar memory ops one
//! per `MemTy` — op kinds are const generics, folded at compile time.
//! Each fusion pattern binds its own template calling the one-tick
//! handlers shared with the decoded engine, and `ElidedCopy` binds a
//! retire-only thunk. Unit-stride vector loads/stores (constant stride
//! equal to the lane width, f32/f64/i64 lanes, ≤ 64 bytes) bind one
//! monomorphic thunk per lane type that bounds-checks the contiguous
//! range once and moves lanes straight between guest bytes and the
//! register slot. Payload-carrying cold ops (calls, wide returns,
//! strided or wide vector memory, FP-lane arithmetic) keep monomorphic
//! thunks that read their own `DecodedOp` — still no dispatch `match`.
//!
//! **Superblock formation.** The compile pass partitions each function
//! into straight-line superblocks: maximal runs of block-eligible
//! templates (no calls/returns, no strided or wider-than-a-line vector
//! memory, no interior jump targets), each with a precomputed
//! machine-op count. Unit-stride vector memory of ≤ 64 bytes touches
//! ≤ 2 lines, within the core's per-op block bounds, so vectorized
//! stream loops (the roofline's memset and triad) run as blocks. At run time a
//! block whose fuel guard holds executes with eager timing but a
//! *deferred* PMU tick: every template applies its cycle/cache/branch
//! effects immediately (so `Core::cycles` stays exact mid-block) while
//! event deltas accumulate in a `BlockAcc`, committed as one
//! `Core::retire_block` tick — blocks of 6–20 ops tick the PMU once
//! instead of per op. A block armed *quiet* (no sampling counter close
//! to its wrap: counting, `stat` and roofline runs) chains: when the ip
//! after it starts another block that fits the fuel, that block runs
//! into the same accumulator, up to `QUIET_BLOCK_OPS` machine ops in
//! all ([`mperf_sim::Core::block_chain`]). A loop then commits once per
//! chain rather than once per basic block (the scalar memset's 2-op
//! loop header and its body are two blocks per element). Fused sites
//! inside a block execute as their *constituent templates* (exactly
//! their bail path — the block already batches the tick, so the
//! one-tick fused retire adds nothing); outside blocks they run the
//! fused fast path.
//!
//! **The observable-invariance contract** (same as fusion's and
//! regalloc's): return values, `ExecStats`, cycles, instructions, PMU
//! counter files, and sampling IPs/callchains are bit-identical to the
//! decoded and reference engines — property-tested across the full
//! engine × fusion × regalloc matrix on all four platform models.
//! Sampling stays on the block path. At block entry
//! [`mperf_sim::Core::block_begin_in`] turns the PMU's headroom into a
//! commit-time deadline: the clock value at which a near cycle counter
//! (the x60 `u_mode_cycle` leader, the c910 cycle sampler) wraps, or
//! zero when a non-cycle counter is near its wrap (and `u64::MAX` when
//! the block's worst case cannot reach it — counting and roofline runs
//! — so the driver skips the checks). After every template (multi-op
//! templates: every op) the driver compares the clock against it, and
//! the op that reaches it commits the block through itself and takes
//! the overflow interrupt at its own pc (`Vm::block_check`) before the
//! block resumes against a fresh deadline. That is exact: counters are
//! additive and nothing wrapped before that op, so the combined tick
//! fires what the per-op path fires there and leaves the same values.
//! A trap mid-block commits the partial accumulator the same way and
//! propagates. A quiet chain is exact for the same reasons: counters
//! are additive, the blocks' cycles telescope, nothing inside a block
//! reads the PMU, and the bound behind the quiet `u64::MAX` deadline
//! covers `QUIET_BLOCK_OPS` ops whether they come as one block or
//! several. Sampling blocks never chain. [`interp::BlockDynamics`]
//! counts block entries, PMU commits, cuts and the ops retired inside
//! blocks (deliberately outside `ExecStats`).
//!
//! **Adding a `DecodedOp`** now means: give it a template thunk
//! (generic over `const DEFER: bool` for the single/block retire
//! lanes, calling `Vm::block_check` between the machine ops of a
//! multi-op template), bind it in `threaded::bind`, and classify it in
//! `threaded::unit_cost`; the equivalence properties gate the
//! observables. `--engine threaded|decoded|reference` is wired through
//! `miniperf` and `bench_trajectory` for bisection.
//!
//! ## The `Arc`/`Send` contract
//!
//! The roofline methodology is a *sweep*: every chart multiplies
//! phases × platforms × workloads, and each combination is an
//! independent simulation. The execution stack is therefore `Send` end
//! to end, enforced by compile-time assertions in [`interp`]:
//!
//! - a [`Vm`] — together with its `Core` (PMU, caches, predictor), an
//!   attached `PerfKernel`, registered [`HostHandler`]s (the type
//!   requires `+ Send`), guest memory, and the [`RooflineRuntime`] —
//!   moves onto a sweep worker thread;
//! - one [`DecodedModule`] per workload is built up front with
//!   [`decode::decode_module`] (no throwaway VM needed) and shared
//!   read-only via `Arc` by every job of that workload, so worker
//!   threads never decode.
//!
//! New workloads plug into the sweep engine by compiling a module
//! (e.g. `mperf_workloads::compile_for`), decoding it once, and handing
//! `(module, Arc<DecodedModule>, setup-closure)` to the scheduler in
//! `mperf-sweep` / `miniperf::roofline_runner` — the setup closure runs
//! on the worker to stage guest data, so it must be `Send + Sync`; all
//! simulation state stays thread-local to the job. The same contract is
//! what a future JIT or threaded-code dispatch will run under.
//!
//! ## The exact-overflow batch
//!
//! The hot retire path pairs with `mperf_sim`'s batched PMU: per-op
//! event deltas accumulate and the full 32-counter scan only runs when
//! the batch could wrap a counter. Counters near their wrap (a sampling
//! counter armed at `-period`) are checked against exactly the events
//! the op adds to them; far counters share a bound on the batch's total
//! events. The op that can wrap a counter is ticked individually — so
//! sampling interrupts still fire on exactly the op that wraps. See
//! [`mperf_sim::Pmu`].
//!
//! The VM also maintains the guest call stack used for flame-graph
//! callchains (built into a reusable scratch buffer, keeping sampling
//! allocation-free), charges instrumentation overhead as real guest
//! instructions, and exposes a bump allocator so hosts can stage
//! workload data in guest memory.

pub mod decode;
pub mod error;
pub mod host;
pub mod interp;
pub mod lower;
pub mod memory;
pub mod regalloc;
pub mod threaded;
pub mod value;

pub use decode::{
    decode_module, decode_module_cfg, decode_module_with, DecodeConfig, DecodedModule, DecodedOp,
    FusePattern, Fused, FusedSite, FusionStats,
};
pub use error::{TrapInfo, VmError};
pub use host::{HostHandler, RegionStats, RooflineRuntime};
pub use interp::{
    BlockDynamics, Engine, ExecConfig, ExecStats, FusionDynamics, RegallocDynamics, Vm,
};
pub use memory::GuestMemory;
pub use regalloc::RegallocStats;
pub use value::{Lanes, Value};
