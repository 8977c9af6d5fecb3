//! `miniperf record`: sampling with automatic counter grouping.
//!
//! This is the §3.3 contribution: instead of failing like stock `perf`
//! when the cycle counter cannot raise overflow interrupts, miniperf
//! detects the platform from its identity registers and, where needed,
//! builds the mode-cycle-leader group automatically. The sample stream
//! then carries `mcycle`/`minstret` in every group read, which is enough
//! to recover IPC and build flame graphs.

use crate::detect::{detect, SamplingStrategy};
use crate::profile::{ProfSample, Profile};
use mperf_event::{
    Errno, EventKind, HwCounter, PerfEventAttr, PerfKernel, ReadFormat, Record, SampleType,
};
use mperf_sim::HwEvent;
use mperf_vm::{Value, Vm, VmError};

/// Recording options.
#[derive(Debug, Clone, Copy)]
pub struct RecordConfig {
    /// Leader sampling period (in leader-event units: cycles for direct
    /// sampling, user-mode cycles for the workaround).
    pub period: u64,
}

impl Default for RecordConfig {
    fn default() -> Self {
        RecordConfig { period: 20_000 }
    }
}

/// Recording failures.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordError {
    /// The platform has no sampling-capable counter at all (SiFive U74).
    Unsupported(&'static str),
    /// The detected CPU is unknown.
    UnknownCpu(u64, u64),
    /// A perf-event call failed.
    Perf(Errno),
    /// The workload trapped.
    Vm(VmError),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::Unsupported(name) => {
                write!(f, "{name}: no sampling-capable PMU counter")
            }
            RecordError::UnknownCpu(v, a) => {
                write!(f, "unknown cpu: mvendorid={v:#x} marchid={a:#x}")
            }
            RecordError::Perf(e) => write!(f, "perf_event failure: {e}"),
            RecordError::Vm(e) => write!(f, "workload trap: {e}"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<Errno> for RecordError {
    fn from(e: Errno) -> Self {
        RecordError::Perf(e)
    }
}

impl From<VmError> for RecordError {
    fn from(e: VmError) -> Self {
        RecordError::Vm(e)
    }
}

/// Record a profile of `entry(args)` executed in `vm`.
///
/// A perf kernel is created if the VM has none. Event groups are chosen
/// by the detected [`SamplingStrategy`].
///
/// # Errors
/// [`RecordError::Unsupported`] on sampling-less hardware,
/// [`RecordError::Perf`]/[`RecordError::Vm`] on kernel or guest failures.
pub fn record(
    vm: &mut Vm,
    entry: &str,
    args: &[Value],
    cfg: RecordConfig,
) -> Result<Profile, RecordError> {
    let mut samples = Vec::new();
    let mut profile = record_streamed(vm, entry, args, cfg, &mut |s| samples.push(s))?;
    profile.samples = samples;
    Ok(profile)
}

/// [`record`] with per-sample streaming: every decoded [`ProfSample`]
/// is handed to `sink` as it is drained from the ring buffer, and the
/// returned [`Profile`] carries an **empty** `samples` vector — only
/// totals, strategy, and symbolization. This is the serve daemon's
/// bounded-memory path: resident sample state is one sample, not the
/// run length.
///
/// # Errors
/// See [`record`].
pub fn record_streamed(
    vm: &mut Vm,
    entry: &str,
    args: &[Value],
    cfg: RecordConfig,
    sink: &mut dyn FnMut(ProfSample),
) -> Result<Profile, RecordError> {
    if vm.kernel.is_none() {
        let k = PerfKernel::new(&mut vm.core);
        vm.attach_kernel(k);
    }
    let detected = detect(&vm.core).map_err(|(v, a)| RecordError::UnknownCpu(v, a))?;

    let sample_type = SampleType::full();
    let read_format = ReadFormat {
        group: true,
        id: true,
    };
    let leader_kind = match detected.strategy {
        SamplingStrategy::Direct => EventKind::Hardware(HwCounter::Cycles),
        SamplingStrategy::ModeCycleLeaderGroup => {
            EventKind::Raw(vm.core.spec.event_code(HwEvent::UModeCycles))
        }
        SamplingStrategy::Unsupported => {
            return Err(RecordError::Unsupported(vm.core.spec.name));
        }
    };
    let leader_attr = PerfEventAttr {
        kind: leader_kind,
        sample_period: cfg.period,
        sample_type,
        read_format,
        disabled: true,
    };

    // Open the group: leader + mcycle + minstret members. With direct
    // sampling the leader *is* the cycle counter, so only instructions
    // ride along.
    let kernel = vm.kernel.as_mut().expect("attached above");
    let leader = kernel.open(&mut vm.core, leader_attr, None)?;
    let cycles_fd = match detected.strategy {
        SamplingStrategy::Direct => None,
        _ => Some(kernel.open(
            &mut vm.core,
            PerfEventAttr::counting(EventKind::Hardware(HwCounter::Cycles)),
            Some(leader),
        )?),
    };
    let instr_fd = kernel.open(
        &mut vm.core,
        PerfEventAttr::counting(EventKind::Hardware(HwCounter::Instructions)),
        Some(leader),
    )?;
    let leader_id = kernel.id_of(leader)?;
    let cycles_id = match cycles_fd {
        Some(fd) => kernel.id_of(fd)?,
        None => leader_id,
    };
    let instr_id = kernel.id_of(instr_fd)?;

    kernel.enable(&mut vm.core, leader)?;
    let run_result = vm.call(entry, args);
    let kernel = vm.kernel.as_mut().expect("still attached");
    kernel.disable(&mut vm.core, leader)?;
    // Propagate guest traps after disabling (so counters stop even on
    // error).
    run_result?;

    // Final totals. With direct sampling the leader *is* the cycle
    // counter, but a sampling counter is re-armed to `-period` at every
    // overflow, so its raw value is meaningless — the cycle total is
    // instead `samples × period` (each overflow is exactly one period).
    let reads = kernel.read(&vm.core, leader)?;
    let total_of = |id: u64| {
        reads
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    let total_instructions = total_of(instr_id);

    // Decode samples into per-sample deltas, handing each one to the
    // sink as soon as it is decoded (nothing accumulates here).
    let records = kernel.drain_records(leader)?;
    let mut sampled_cycles = 0u64;
    let mut lost = 0u64;
    let mut prev_cycles = 0u64;
    let mut prev_instr = 0u64;
    let direct = detected.strategy == SamplingStrategy::Direct;
    for r in records {
        match r {
            Record::Lost(n) => lost += n,
            Record::Sample(s) => {
                let get = |id: u64| {
                    s.read_group
                        .iter()
                        .find(|(i, _)| *i == id)
                        .map(|(_, v)| *v)
                        .unwrap_or(0)
                };
                let cycles = if direct {
                    s.period.unwrap_or(cfg.period)
                } else {
                    let c = get(cycles_id);
                    let d = c.saturating_sub(prev_cycles);
                    prev_cycles = c;
                    d
                };
                let i = get(instr_id);
                sampled_cycles += cycles;
                sink(ProfSample {
                    ip: s.ip.unwrap_or(0),
                    callchain: s.callchain.clone(),
                    cycles,
                    instructions: i.saturating_sub(prev_instr),
                });
                prev_instr = i;
            }
        }
    }
    let total_cycles = if direct {
        sampled_cycles
    } else {
        total_of(cycles_id)
    };

    Ok(Profile {
        platform: detected.platform,
        strategy: detected.strategy,
        samples: Vec::new(),
        lost,
        total_cycles,
        total_instructions,
        func_names: Profile::symbolize_from(vm.module()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mperf_ir::compile;
    use mperf_sim::{Core, Platform, PlatformSpec};

    const WORK: &str = r#"
        fn leaf_a(n: i64) -> i64 {
            var s: i64 = 0;
            for (var i: i64 = 0; i < n; i = i + 1) { s = s + i * 3; }
            return s;
        }
        fn leaf_b(n: i64) -> i64 {
            var s: i64 = 1;
            for (var i: i64 = 0; i < n; i = i + 1) { s = s ^ (i << 2); }
            return s;
        }
        fn main_work(n: i64) -> i64 {
            var acc: i64 = 0;
            for (var r: i64 = 0; r < 40; r = r + 1) {
                acc = acc + leaf_a(n) + leaf_b(n / 2);
            }
            return acc;
        }
    "#;

    fn record_on(spec: PlatformSpec) -> Result<Profile, RecordError> {
        let module = compile("t", WORK).unwrap();
        let mut vm = Vm::new(&module, Core::new(spec));

        record(
            &mut vm,
            "main_work",
            &[Value::I64(2000)],
            RecordConfig { period: 5_000 },
        )
    }

    #[test]
    fn record_works_on_x60_via_workaround() {
        let p = record_on(PlatformSpec::x60()).unwrap();
        assert_eq!(p.strategy, SamplingStrategy::ModeCycleLeaderGroup);
        assert!(p.samples.len() > 20, "{}", p.samples.len());
        assert!(p.total_instructions > 0);
        let ipc = p.ipc();
        assert!(ipc > 0.1 && ipc < 2.5, "x60 ipc {ipc}");
        // Samples attribute across the two leaves.
        let leaves: std::collections::HashSet<&str> =
            p.samples.iter().map(|s| p.func_name(s.ip)).collect();
        assert!(leaves.contains("leaf_a"), "{leaves:?}");
        assert!(leaves.contains("leaf_b"), "{leaves:?}");
    }

    #[test]
    fn record_works_on_c910_directly() {
        let p = record_on(PlatformSpec::c910()).unwrap();
        assert_eq!(p.strategy, SamplingStrategy::Direct);
        assert!(p.samples.len() > 20);
    }

    #[test]
    fn record_fails_cleanly_on_u74() {
        let e = record_on(PlatformSpec::u74()).unwrap_err();
        assert!(matches!(e, RecordError::Unsupported(_)), "{e:?}");
    }

    #[test]
    fn per_sample_deltas_sum_to_totals_approximately() {
        let p = record_on(PlatformSpec::x60()).unwrap();
        let sampled: u64 = p.samples.iter().map(|s| s.cycles).sum();
        assert!(
            sampled <= p.total_cycles,
            "sampled {sampled} vs total {}",
            p.total_cycles
        );
        // Most of the run is covered by samples.
        assert!(
            sampled * 10 >= p.total_cycles * 5,
            "sampled {sampled} vs total {}",
            p.total_cycles
        );
    }

    #[test]
    fn callchains_reach_main() {
        let p = record_on(PlatformSpec::x60()).unwrap();
        let with_main = p
            .samples
            .iter()
            .filter(|s| p.stack_of(s).starts_with("main_work"))
            .count();
        assert!(
            with_main * 10 >= p.samples.len() * 8,
            "{with_main}/{}",
            p.samples.len()
        );
    }

    /// Sampling stays on the superblock path: recording the CLI demo at
    /// period 997 retires at least 99% of machine ops inside
    /// superblocks, on the x60 leader-group workaround and on c910
    /// direct sampling alike, with the overflows taken at block cuts.
    #[test]
    fn record_of_demo_retires_ops_in_superblocks() {
        for platform in [Platform::SpacemitX60, Platform::TheadC910] {
            let (mut vm, args) = crate::cli::demo_vm(platform);
            let p = record(&mut vm, "demo", &args, RecordConfig { period: 997 }).unwrap();
            let blocks = vm.block_dynamics();
            let total = vm.stats().machine_ops;
            let share = blocks.block_share(total);
            assert!(
                share >= 0.99,
                "{platform:?}: {:.2}% of {total} ops in superblocks ({blocks:?})",
                share * 100.0
            );
            // Each overflow interrupt is one sample (kept or lost to a
            // full ring); those raised inside a block are block cuts.
            let overflows = p.samples.len() as u64 + p.lost;
            assert!(
                blocks.cut_at_wrap > 0 && blocks.cut_at_wrap <= overflows,
                "{platform:?}: {blocks:?}, {overflows} overflows"
            );
        }
    }

    /// Sampling blocks have a finite deadline and never chain: recording
    /// the CLI demo at period 997 commits every block it enters (plus
    /// one commit per cut), on x60 and c910 alike.
    #[test]
    fn record_does_not_chain_blocks() {
        for platform in [Platform::SpacemitX60, Platform::TheadC910] {
            let (mut vm, args) = crate::cli::demo_vm(platform);
            record(&mut vm, "demo", &args, RecordConfig { period: 997 }).unwrap();
            let blocks = vm.block_dynamics();
            assert!(
                blocks.entered > 0 && blocks.commits >= blocks.entered,
                "{platform:?}: {blocks:?}"
            );
        }
    }

    #[test]
    fn guest_trap_propagates_but_counters_stop() {
        let src = "fn boom(p: *i64) -> i64 { return *p; }";
        let module = compile("t", src).unwrap();
        let mut vm = Vm::new(&module, Core::new(PlatformSpec::x60()));
        let e = record(&mut vm, "boom", &[Value::I64(0)], RecordConfig::default()).unwrap_err();
        assert!(matches!(e, RecordError::Vm(_)), "{e:?}");
    }
}
