//! Calls into the stack's layers with a span around each, shared by the
//! workloads' traced paths.

use crate::trace;
use miniperf::SetupFn;
use mperf_ir::transform::instrument::{InstrumentOptions, InstrumentPass};
use mperf_ir::transform::vectorize::VectorizePass;
use mperf_ir::transform::PassManager;
use mperf_ir::Module;
use mperf_roofline::microbench::vec_caps_for;
use mperf_sim::{Core, Platform};
use mperf_vm::{decode_module_cfg, DecodedModule, ExecConfig, Value, Vm};
use std::sync::Arc;

fn insts(module: &Module) -> u64 {
    module.iter_funcs().map(|(_, f)| f.num_insts() as u64).sum()
}

/// `mperf_workloads::compile_for`, split at the layer boundary: the front
/// end (`ir.compile`) and the pass pipeline (`ir.passes`).
/// [`check_pipeline`] proves at set-up that the split builds the same
/// module.
pub fn compile(name: &str, source: &str, platform: Platform, instrument: bool) -> Module {
    let mut module = trace::span("ir.compile", || mperf_ir::compile(name, source))
        .expect("benchmark sources compile");
    trace::span("ir.passes", || {
        PassManager::standard().run(&mut module);
        VectorizePass::new(vec_caps_for(platform)).run_with_report(&mut module);
        if instrument {
            InstrumentPass::new(InstrumentOptions::default()).run(&mut module);
        }
        mperf_ir::verify::verify_module(&module)
    })
    .expect("pipeline output verifies");
    trace::count("ir.insts", insts(&module));
    module
}

/// Fail unless [`compile`] and `compile_for` print the same module.
pub fn check_pipeline(
    name: &str,
    source: &str,
    platform: Platform,
    instrument: bool,
) -> Result<(), String> {
    let split = compile(name, source, platform, instrument).to_string();
    let whole = mperf_workloads::compile_for(name, source, platform, instrument)
        .map_err(|e| e.to_string())?
        .to_string();
    if split == whole {
        Ok(())
    } else {
        Err(format!(
            "{name}/{platform:?}: the split ir.compile + ir.passes pipeline no longer \
             builds what compile_for builds"
        ))
    }
}

/// Decode (regalloc, validate, template compile) with a span.
pub fn decode(module: &Module, cfg: ExecConfig) -> Arc<DecodedModule> {
    let decoded = trace::span("vm.decode", || decode_module_cfg(module, cfg.decode()));
    trace::count(
        "vm.decoded_ops",
        decoded.funcs.iter().map(|f| f.ops.len() as u64).sum(),
    );
    decoded
}

/// Exact simulation counts of one plain call: `[return value bits…,
/// cycles, instret, L1D misses, MIR ops]`.
pub type CallCounts = Vec<u64>;

/// A plain `Vm::call` of `entry` on a fresh VM sharing `decoded`, inside
/// a `vm.exec` span, with its simulation counts attached to the current
/// operation.
pub fn plain_call(
    module: &Module,
    decoded: &Arc<DecodedModule>,
    platform: Platform,
    entry: &str,
    setup: SetupFn,
) -> Result<CallCounts, String> {
    let mut vm = Vm::new(module, Core::new(platform.spec()));
    vm.configure(ExecConfig::default());
    vm.set_decoded(Arc::clone(decoded));
    let args = setup(&mut vm).map_err(|e| format!("setup: {e}"))?;
    let ret = trace::span("vm.exec", || vm.call(entry, &args))
        .map_err(|e| format!("{entry}: {}", vm.describe_error(&e)))?;
    let (cycles, instret) = (vm.core.cycles(), vm.core.instructions());
    let misses = vm.core.mem().l1d_stats().1;
    let mir_ops = vm.stats().mir_ops;
    trace::count("vm.mir_ops", mir_ops);
    trace::count("sim.cycles", cycles);
    trace::count("sim.instret", instret);
    trace::count("sim.cache_misses", misses);
    let mut counts: CallCounts = ret.iter().map(value_bits).collect();
    counts.extend([cycles, instret, misses, mir_ops]);
    Ok(counts)
}

fn value_bits(v: &Value) -> u64 {
    match v {
        Value::I64(x) => *x as u64,
        Value::F64(x) => x.to_bits(),
        other => {
            // Hash any other shape through its debug text.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in format!("{other:?}").bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
            h
        }
    }
}
