//! Property-based tests over the cross-crate invariants: compiled MiniC
//! arithmetic matches Rust semantics on random inputs, the perf ring
//! buffer round-trips arbitrary samples, PMU counting is exact, and the
//! thread-parallel roofline sweep is bit-identical to the serial sweep.

use miniperf::{run_roofline_sweep, RooflineJob, RooflineRequest};
use mperf_event::{Record, RingBuffer, SampleRecord, SampleType};
use mperf_ir::transform::instrument::{InstrumentOptions, InstrumentPass};
use mperf_ir::transform::PassManager;
use mperf_sim::{Core, PlatformSpec};
use mperf_vm::{Engine, Value, Vm, VmError};
use proptest::prelude::*;

/// Program templates for the decoded/reference equivalence property.
/// Together they exercise arithmetic, control flow, memory traffic,
/// guest-to-guest calls (recursion), floats, casts, and traps.
const EQUIV_TEMPLATES: &[&str] = &[
    // Mixed integer arithmetic with data-dependent branches.
    r#"
        fn main(p: *i64, n: i64) -> i64 {
            var acc: i64 = 0;
            for (var i: i64 = 0; i < n; i = i + 1) {
                var op: i64 = p[i % 32] % 4;
                if (op == 0) { acc = acc + i * 3; }
                else if (op == 1) { acc = acc ^ (i << 2); }
                else if (op == 2) { acc = acc + p[(acc % 16 + 16) % 32]; }
                else { acc = acc - (i % 7); }
            }
            return acc;
        }
    "#,
    // Memory-heavy: strided loads and stores, plus a flop-free unary
    // negation in straight-line code (a superblock shape whose
    // instruction events once leaked between the block tick lanes).
    r#"
        fn main(p: *i64, n: i64) -> i64 {
            for (var i: i64 = 0; i < n; i = i + 1) {
                p[i % 32] = -p[(i * 7) % 32] + i;
            }
            var s: i64 = 0;
            for (var j: i64 = 0; j < 32; j = j + 1) { s = s + (-s ^ p[j]); }
            return s;
        }
    "#,
    // Call-heavy: recursion plus a helper call per iteration.
    r#"
        fn helper(x: i64) -> i64 { return x * 2 + 1; }
        fn fib(n: i64) -> i64 {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        fn main(p: *i64, n: i64) -> i64 {
            var acc: i64 = fib(n % 12);
            for (var i: i64 = 0; i < n; i = i + 1) {
                acc = acc + helper(p[i % 32]);
            }
            return acc;
        }
    "#,
    // Floats, casts, and FP compare chains.
    r#"
        fn main(p: *i64, n: i64) -> i64 {
            var s: f64 = 0.0;
            for (var i: i64 = 0; i < n; i = i + 1) {
                var x: f64 = (i * 13 % 97) as f64;
                if (x > 48.0) { s = s + x * 1.5; } else { s = s - x / 3.0; }
            }
            return (s as i64) + p[0];
        }
    "#,
];

/// Every decoded-engine pass combination the equivalence properties
/// pin against the reference engine, with display labels.
const DECODED_CONFIGS: [(&str, bool, bool); 4] = [
    ("fused+regalloc", true, true),
    ("fused", true, false),
    ("regalloc", false, true),
    ("bare", false, false),
];

/// The full engine × pass matrix pinned against the reference engine:
/// the decoded (match-dispatch) and threaded (template + superblock)
/// engines, each across the fusion × regalloc combinations.
fn engine_matrix() -> Vec<(String, Engine, bool, bool)> {
    let mut m = Vec::new();
    for (engine, ename) in [(Engine::Decoded, "decoded"), (Engine::Threaded, "threaded")] {
        for (label, fuse, regalloc) in DECODED_CONFIGS {
            m.push((format!("{ename}/{label}"), engine, fuse, regalloc));
        }
    }
    m
}

/// Run one template on one platform/engine; returns every observable:
/// (ret, stats, cycles, instructions, pmu counters).
fn run_equiv(
    module: &mperf_ir::Module,
    spec: PlatformSpec,
    engine: Engine,
    fuse: bool,
    regalloc: bool,
    data: &[i64],
    n: i64,
) -> (Vec<Value>, mperf_vm::ExecStats, u64, u64, Vec<u64>) {
    let mut vm = Vm::with_memory(module, Core::new(spec), 1 << 20);
    vm.set_engine(engine);
    vm.set_fusion(fuse);
    vm.set_regalloc(regalloc);
    let base = vm.mem.alloc(8 * data.len() as u64, 8).unwrap();
    for (i, v) in data.iter().enumerate() {
        vm.mem.write_u64(base + i as u64 * 8, *v as u64).unwrap();
    }
    let ret = vm
        .call("main", &[Value::I64(base as i64), Value::I64(n)])
        .unwrap();
    let pmu: Vec<u64> = (0..mperf_sim::pmu::NUM_COUNTERS)
        .map(|i| vm.core.pmu().read(i))
        .collect();
    (
        ret,
        vm.stats(),
        vm.core.cycles(),
        vm.core.instructions(),
        pmu,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compiled integer expressions agree with Rust's wrapping semantics,
    /// including after constant folding and strength reduction.
    #[test]
    fn compiled_arithmetic_matches_host(a in -1_000_000i64..1_000_000, b in 1i64..4096) {
        let src = r#"
            fn f(a: i64, b: i64) -> i64 {
                return (a + b) * 3 - a / b + a % b + (a << 2) - (a >> 1) + (a & b) + (a | b) + (a ^ b);
            }
        "#;
        let mut module = mperf_ir::compile("p", src).unwrap();
        PassManager::standard().run(&mut module);
        let mut vm = Vm::new(&module, Core::new(PlatformSpec::u74()));
        let out = vm.call("f", &[Value::I64(a), Value::I64(b)]).unwrap();
        let expected = (a.wrapping_add(b)).wrapping_mul(3)
            .wrapping_sub(a / b)
            .wrapping_add(a % b)
            .wrapping_add(a << 2)
            .wrapping_sub(a >> 1)
            .wrapping_add(a & b)
            .wrapping_add(a | b)
            .wrapping_add(a ^ b);
        prop_assert_eq!(out, vec![Value::I64(expected)]);
    }

    /// The fixed instruction counter is exact: a counted loop retires an
    /// exactly predictable instruction count on the 1:1 RISC-V model.
    #[test]
    fn instret_is_deterministic(n in 1i64..500) {
        let src = "fn f(n: i64) -> i64 { var s: i64 = 0; for (var i: i64 = 0; i < n; i = i + 1) { s = s + i; } return s; }";
        let module = mperf_ir::compile("p", src).unwrap();
        let run = || {
            let mut vm = Vm::new(&module, Core::new(PlatformSpec::u74()));
            vm.call("f", &[Value::I64(n)]).unwrap();
            vm.core.instructions()
        };
        prop_assert_eq!(run(), run(), "same program, same instret");
    }

    /// Ring buffers round-trip arbitrary sample batches (drop-free when
    /// sized generously).
    #[test]
    fn ring_roundtrip(ips in proptest::collection::vec(0u64..u64::MAX, 1..40)) {
        let st = SampleType::full();
        let mut ring = RingBuffer::new(64 * 1024, st);
        for (i, ip) in ips.iter().enumerate() {
            let s = SampleRecord {
                ip: Some(*ip),
                tid: Some(i as u32),
                time: Some(i as u64 * 7),
                period: Some(1000),
                read_group: vec![(1, *ip ^ 0xffff), (2, i as u64)],
                callchain: vec![*ip, ip.wrapping_add(1)],
            };
            prop_assert!(ring.push_sample(&s));
        }
        let records = ring.drain();
        prop_assert_eq!(records.len(), ips.len());
        for (r, ip) in records.iter().zip(&ips) {
            match r {
                Record::Sample(s) => prop_assert_eq!(s.ip, Some(*ip)),
                other => prop_assert!(false, "unexpected {:?}", other),
            }
        }
    }

    /// Guest float kernels match host computation bit-for-bit for fused
    /// shapes that avoid reassociation.
    #[test]
    fn float_store_load_roundtrip(vals in proptest::collection::vec(-1e6f32..1e6, 1..64)) {
        let src = r#"
            fn scale(p: *f32, n: i64, k: f32) {
                for (var i: i64 = 0; i < n; i = i + 1) {
                    p[i] = p[i] * k;
                }
            }
        "#;
        let mut module = mperf_ir::compile("p", src).unwrap();
        PassManager::standard().run(&mut module);
        let mut vm = Vm::new(&module, Core::new(PlatformSpec::x60()));
        let p = vm.mem.alloc(vals.len() as u64 * 4, 8).unwrap();
        for (i, v) in vals.iter().enumerate() {
            vm.mem.write_f32(p + i as u64 * 4, *v).unwrap();
        }
        vm.call("scale", &[Value::I64(p as i64), Value::I64(vals.len() as i64), Value::F32(1.5)]).unwrap();
        for (i, v) in vals.iter().enumerate() {
            let got = vm.mem.read_f32(p + i as u64 * 4).unwrap();
            prop_assert_eq!(got, v * 1.5);
        }
    }

    /// The decoded engine — across the full register-allocation ×
    /// fusion matrix — is observably identical to the reference
    /// interpreter: for generated programs (random template, input
    /// data, and trip count, with and without the optimization
    /// pipeline) every configuration returns the same values and leaves
    /// bit-identical `ExecStats`, cycle counts, instruction counts, and
    /// PMU counter files on every platform model. Decode-time passes
    /// change speed, never observables.
    #[test]
    fn decoded_engine_matches_reference(
        tpl in 0usize..4,
        optimize in 0u64..2,
        n in 1i64..120,
        data in proptest::collection::vec(-1_000i64..1_000, 32..33),
    ) {
        let mut module = mperf_ir::compile("equiv", EQUIV_TEMPLATES[tpl]).unwrap();
        if optimize == 1 {
            PassManager::standard().run(&mut module);
        }
        for spec in [
            PlatformSpec::x60(),
            PlatformSpec::c910(),
            PlatformSpec::u74(),
            PlatformSpec::i5_1135g7(),
        ] {
            let reference =
                run_equiv(&module, spec.clone(), Engine::Reference, true, true, &data, n);
            for (label, engine, fuse, regalloc) in engine_matrix() {
                let decoded = run_equiv(
                    &module, spec.clone(), engine, fuse, regalloc, &data, n,
                );
                prop_assert_eq!(
                    &reference.0, &decoded.0,
                    "return values ({}, {})", spec.name, label
                );
                prop_assert_eq!(reference.1, decoded.1, "ExecStats ({}, {})", spec.name, label);
                prop_assert_eq!(reference.2, decoded.2, "cycles ({}, {})", spec.name, label);
                prop_assert_eq!(
                    reference.3, decoded.3,
                    "instructions ({}, {})", spec.name, label
                );
                prop_assert_eq!(
                    &reference.4, &decoded.4,
                    "PMU counters ({}, {})", spec.name, label
                );
            }
        }
    }

    /// The thread-parallel roofline sweep is bit-identical to the
    /// serial sweep: for generated instrumented workloads, running the
    /// two-phase protocol at `jobs ∈ {2, 4}` produces the same
    /// `RegionMeasurement`s, `ExecStats`, cycle counts, instruction
    /// counts, and PMU counter files as `jobs = 1` on every platform
    /// model — and the batched `run_roofline_sweep` over all four
    /// platforms at once agrees cell for cell. The sweep runs the
    /// *fused* decoded engine (the default decode), so this also pins
    /// fused execution under the worker pool ≡ serial fused execution.
    #[test]
    fn parallel_sweep_matches_serial_sweep(
        kernel in 0usize..2,
        n in 16i64..96,
        reps in 1i64..4,
    ) {
        const SWEEP_KERNELS: &[(&str, &str)] = &[
            ("saxpy", r#"
                fn saxpy(a: *f32, b: *f32, n: i64, reps: i64, k: f32) {
                    for (var r: i64 = 0; r < reps; r = r + 1) {
                        for (var i: i64 = 0; i < n; i = i + 1) {
                            a[i] = a[i] + k * b[i];
                        }
                    }
                }
            "#),
            ("saxpy", r#"
                fn inner(a: *f32, b: *f32, n: i64) {
                    for (var i: i64 = 0; i < n; i = i + 1) {
                        a[i] = a[i] * 0.5 + b[i];
                    }
                }
                fn saxpy(a: *f32, b: *f32, n: i64, reps: i64, k: f32) {
                    for (var r: i64 = 0; r < reps; r = r + 1) {
                        inner(a, b, n);
                    }
                }
            "#),
        ];
        let mut module = mperf_ir::compile("sweep", SWEEP_KERNELS[kernel].1).unwrap();
        PassManager::standard().run(&mut module);
        InstrumentPass::new(InstrumentOptions::default()).run(&mut module);
        let entry = SWEEP_KERNELS[kernel].0;
        let setup = move |vm: &mut Vm| -> Result<Vec<Value>, VmError> {
            let a = vm.mem.alloc(n as u64 * 4, 64)?;
            let b = vm.mem.alloc(n as u64 * 4, 64)?;
            for i in 0..n as u64 {
                vm.mem.write_f32(a + i * 4, i as f32)?;
                vm.mem.write_f32(b + i * 4, 1.0 + i as f32 / 7.0)?;
            }
            Ok(vec![
                Value::I64(a as i64),
                Value::I64(b as i64),
                Value::I64(n),
                Value::I64(reps),
                Value::F32(1.5),
            ])
        };
        let specs = [
            PlatformSpec::x60(),
            PlatformSpec::c910(),
            PlatformSpec::u74(),
            PlatformSpec::i5_1135g7(),
        ];
        let mut serial_runs = Vec::new();
        for spec in &specs {
            let serial = RooflineRequest::new().run(&module, spec, entry, &setup).unwrap();
            // The sweep defaults to the threaded engine; the decoded
            // engine must produce the identical run (cross-engine sweep
            // identity), so parallel threaded ≡ serial decoded too.
            let decoded_cfg = mperf_vm::ExecConfig {
                engine: Engine::Decoded,
                fuse: true,
                regalloc: true,
            };
            let decoded = RooflineRequest::new()
                .config(decoded_cfg)
                .run(&module, spec, entry, &setup)
                .unwrap();
            prop_assert_eq!(
                &serial, &decoded,
                "threaded sweep diverges from decoded sweep ({})", spec.name
            );
            for jobs in [2usize, 4] {
                let parallel = RooflineRequest::new()
                    .jobs(jobs)
                    .run(&module, spec, entry, &setup)
                    .unwrap();
                // Field-by-field on the named observables first (sharper
                // failure messages), then whole-run equality.
                prop_assert_eq!(
                    &serial.regions, &parallel.regions,
                    "RegionMeasurements ({}, jobs={})", spec.name, jobs
                );
                for (s, p) in [(&serial.baseline, &parallel.baseline),
                               (&serial.instrumented, &parallel.instrumented)] {
                    prop_assert_eq!(s.exec, p.exec, "ExecStats ({}, jobs={})", spec.name, jobs);
                    prop_assert_eq!(
                        s.total_cycles, p.total_cycles,
                        "cycles ({}, jobs={})", spec.name, jobs
                    );
                    prop_assert_eq!(
                        s.instructions, p.instructions,
                        "instructions ({}, jobs={})", spec.name, jobs
                    );
                    prop_assert_eq!(&s.pmu, &p.pmu, "PMU counters ({}, jobs={})", spec.name, jobs);
                }
                prop_assert_eq!(&serial, &parallel, "whole run ({}, jobs={})", spec.name, jobs);
            }
            serial_runs.push(serial);
        }
        // The batched matrix sweep (all four platforms as cells in one
        // worker pool) agrees with the per-platform serial runs, in
        // cell order.
        let cells: Vec<RooflineJob> = specs
            .iter()
            .map(|spec| RooflineJob {
                module: &module,
                decoded: None,
                spec: spec.clone(),
                entry: entry.to_string(),
                setup: Box::new(setup),
            })
            .collect();
        for jobs in [2usize, 4] {
            let swept = run_roofline_sweep(&cells, jobs);
            for (serial, cell) in serial_runs.iter().zip(&swept) {
                let cell = cell.as_ref().unwrap();
                prop_assert_eq!(serial, cell, "sweep cell (jobs={})", jobs);
            }
        }
    }

    /// Traps are engine-equivalent too: every configuration stops at
    /// the same op with the same error and the same partial statistics.
    /// Random fuel values land the exhaustion point *inside* fused
    /// patterns and *on* elided-copy slots (the loop body's `s = ...`
    /// copy coalesces away under regalloc), exercising both the
    /// superinstruction bail paths and the retire-only elided-copy
    /// dispatch at the trap boundary. The counted loop's header and body
    /// are two superblocks that chain on a quiet PMU, so fuel past
    /// `QUIET_BLOCK_OPS` also lands the exhaustion point inside and
    /// across quiet block chains, which stop one block short of the
    /// fuel.
    #[test]
    fn decoded_engine_matches_reference_on_traps(fuel in 50u64..20_000) {
        for src in [
            "fn main(n: i64) -> i64 { var s: i64 = 0; while (true) { s = s + n; } return s; }",
            "fn main(n: i64) -> i64 { var s: i64 = 0; \
             for (var i: i64 = 0; i < 1000000; i = i + 1) { s = s + n; } return s; }",
        ] {
            let module = mperf_ir::compile("trap", src).unwrap();
            let run = |engine: Engine, fuse: bool, regalloc: bool| {
                let mut vm = Vm::with_memory(&module, Core::new(PlatformSpec::x60()), 1 << 20);
                vm.set_engine(engine);
                vm.set_fusion(fuse);
                vm.set_regalloc(regalloc);
                vm.set_fuel(fuel);
                let err = vm.call("main", &[Value::I64(3)]).unwrap_err();
                (format!("{err:?}"), vm.stats(), vm.core.cycles())
            };
            let reference = run(Engine::Reference, true, true);
            for (label, engine, fuse, regalloc) in engine_matrix() {
                prop_assert_eq!(&reference, &run(engine, fuse, regalloc), "{}", label);
            }
        }
    }

    /// Guest traps land identically mid-pattern: an out-of-bounds access
    /// whose `ptradd`+`load` pair is fused must fault at the same op
    /// with the same partial state as every other configuration (the
    /// fused fast path pre-checks bounds and bails), with and without
    /// the copy-coalescing pass rewriting the surrounding stream.
    #[test]
    fn fused_memory_traps_match_unfused(n in 1i64..64, oob_at in 0i64..64) {
        let src = r#"
            fn main(p: *i64, n: i64, bad: *i64, bad_at: i64) -> i64 {
                var s: i64 = 0;
                for (var i: i64 = 0; i < n; i = i + 1) {
                    if (i == bad_at) { s = s + bad[0]; }
                    s = s + p[i % 16];
                }
                return s;
            }
        "#;
        let module = mperf_ir::compile("memtrap", src).unwrap();
        let run = |engine: Engine, fuse: bool, regalloc: bool| {
            let mut vm = Vm::with_memory(&module, Core::new(PlatformSpec::x60()), 1 << 20);
            vm.set_engine(engine);
            vm.set_fusion(fuse);
            vm.set_regalloc(regalloc);
            let base = vm.mem.alloc(8 * 16, 8).unwrap();
            for i in 0..16u64 {
                vm.mem.write_u64(base + i * 8, i * 3).unwrap();
            }
            let r = vm.call(
                "main",
                &[
                    Value::I64(base as i64),
                    Value::I64(n),
                    Value::I64(-8), // out-of-bounds pointer
                    Value::I64(oob_at),
                ],
            );
            (format!("{r:?}"), vm.stats(), vm.core.cycles())
        };
        let reference = run(Engine::Reference, true, true);
        for (label, engine, fuse, regalloc) in engine_matrix() {
            prop_assert_eq!(&reference, &run(engine, fuse, regalloc), "{}", label);
        }
    }
}

/// Overflow sampling is engine-exact: driving identical sampling setups
/// through every engine configuration (reference, and the decoded and
/// threaded engines across the regalloc × fusion matrix) produces the
/// same sample records — ip, callchain, time and read-group values, and
/// any lost-sample records — the same final counter file and the same
/// cycles. Overflow interrupts fire on the same ops, including samples
/// landing on elided-copy slots (which retire the same `Move` at the
/// same pc as the original copy) and inside superblocks, where the op
/// that reaches the block's deadline commits the block through itself.
///
/// The program runs plain and roofline-instrumented: the counter
/// updates and loop notifications retire several machine ops per
/// template, and a wrap on any of them must commit right there.
///
/// Covered on every platform that can sample, with the cycle leaders
/// `record` uses (the x60 u-mode-cycles leader group, direct cycles on
/// c910 and i5) and non-cycle leaders (instructions, cache references),
/// which superblocks handle by committing op by op near the wrap. The
/// periods run from 1 (a wrap on every op) past typical loop-body
/// lengths to `record`'s 997.
#[test]
fn decoded_engine_sampling_matches_reference() {
    use mperf_event::{EventKind, HwCounter, PerfEventAttr, PerfKernel, ReadFormat};
    use mperf_sim::HwEvent;

    let src = r#"
        fn inner(p: *i64, n: i64) -> i64 {
            var h: i64 = 0;
            for (var i: i64 = 0; i < n; i = i + 1) {
                h = (h ^ p[i % 32]) * 31 + (i >> 2) + p[(i * 5) % 32];
            }
            return h;
        }
        fn main(p: *i64, n: i64, reps: i64) -> i64 {
            var acc: i64 = 0;
            for (var r: i64 = 0; r < reps; r = r + 1) {
                acc = acc + inner(p, n);
            }
            return acc;
        }
    "#;
    let plain = mperf_ir::compile("sampling", src).unwrap();
    let mut instrumented = plain.clone();
    InstrumentPass::new(InstrumentOptions::default()).run(&mut instrumented);

    // (label, platform, leader, group members).
    let umc = PlatformSpec::x60().event_code(HwEvent::UModeCycles);
    let cycles = EventKind::Hardware(HwCounter::Cycles);
    let instructions = EventKind::Hardware(HwCounter::Instructions);
    let setups = [
        (
            "x60/u-mode-cycles",
            PlatformSpec::x60(),
            EventKind::Raw(umc),
            vec![cycles, instructions],
        ),
        (
            "c910/cycles",
            PlatformSpec::c910(),
            cycles,
            vec![instructions],
        ),
        (
            "c910/instructions",
            PlatformSpec::c910(),
            instructions,
            vec![cycles],
        ),
        (
            "i5/cycles",
            PlatformSpec::i5_1135g7(),
            cycles,
            vec![instructions],
        ),
        (
            "i5/cache-references",
            PlatformSpec::i5_1135g7(),
            EventKind::Hardware(HwCounter::CacheReferences),
            vec![cycles, instructions],
        ),
    ];

    let run = |module: &mperf_ir::Module,
               spec: &PlatformSpec,
               leader: EventKind,
               members: &[EventKind],
               period: u64,
               (n, reps): (i64, i64),
               engine: Engine,
               fuse: bool,
               regalloc: bool| {
        let mut core = Core::new(spec.clone());
        let mut kernel = PerfKernel::new(&mut core);
        let attr = PerfEventAttr {
            kind: leader,
            sample_period: period,
            sample_type: SampleType::full(),
            read_format: ReadFormat {
                group: true,
                id: true,
            },
            disabled: true,
        };
        let fd = kernel.open(&mut core, attr, None).unwrap();
        for m in members {
            kernel
                .open(&mut core, PerfEventAttr::counting(*m), Some(fd))
                .unwrap();
        }
        kernel.enable(&mut core, fd).unwrap();
        let mut vm = Vm::with_memory(module, core, 1 << 20);
        vm.set_engine(engine);
        vm.set_fusion(fuse);
        vm.set_regalloc(regalloc);
        vm.attach_kernel(kernel);
        // Run the counting variant of instrumented loops.
        vm.roofline.instrumented = true;
        let base = vm.mem.alloc(8 * 32, 8).unwrap();
        for i in 0..32u64 {
            vm.mem
                .write_u64(base + i * 8, i.wrapping_mul(2_654_435_761))
                .unwrap();
        }
        vm.call(
            "main",
            &[Value::I64(base as i64), Value::I64(n), Value::I64(reps)],
        )
        .unwrap();
        let mut kernel = vm.kernel.take().unwrap();
        let records = kernel.drain_records(fd).unwrap();
        let counters: Vec<u64> = (0..mperf_sim::pmu::NUM_COUNTERS)
            .map(|i| vm.core.pmu().read(i))
            .collect();
        (
            records,
            kernel.samples_taken(),
            counters,
            vm.core.pmu().overflow_status(),
            vm.core.cycles(),
        )
    };

    let handler_cycles =
        PerfKernel::new(&mut Core::new(PlatformSpec::c910())).sample_overhead_cycles;
    let programs = [("plain", &plain), ("instrumented", &instrumented)];
    for ((label, spec, leader, members), (program, module)) in setups
        .iter()
        .flat_map(|s| programs.iter().map(move |p| (s, p)))
    {
        for period in [1u64, 2, 7, 97, 700, 997] {
            // Short runs for tiny periods (a sample every few ops).
            let size = if period < 10 { (12, 2) } else { (150, 40) };
            let reference = run(
                module,
                spec,
                *leader,
                members,
                period,
                size,
                Engine::Reference,
                true,
                true,
            );
            // A leader counting every mode's cycles at a period below
            // the handler's own cost stops after one sample: the
            // handler's cycles wrap the re-armed counter (silently, the
            // interrupt is already being served). The engines must agree
            // on that too.
            let stalls = *leader == cycles && period < handler_cycles;
            assert!(
                reference.1 > 5 || (stalls && reference.1 == 1),
                "{label} {program} period {period}: expected a healthy sample stream: {}",
                reference.1
            );
            for (cfg, engine, fuse, regalloc) in engine_matrix() {
                let got = run(
                    module, spec, *leader, members, period, size, engine, fuse, regalloc,
                );
                assert_eq!(
                    reference.1, got.1,
                    "{label} {program} period {period}: sample counts diverge ({cfg})"
                );
                assert_eq!(
                    reference.0, got.0,
                    "{label} {program} period {period}: sample records diverge ({cfg})"
                );
                assert_eq!(
                    reference.2, got.2,
                    "{label} {program} period {period}: counter files diverge ({cfg})"
                );
                assert_eq!(
                    (reference.3, reference.4),
                    (got.3, got.4),
                    "{label} {program} period {period}: overflow status or cycles diverge ({cfg})"
                );
            }
        }
    }
}

/// A vectorizable memset + triad + f32 scale stream: compiled with each
/// vector platform's capabilities, its unit-stride vector loads and
/// stores (f32, f64 and i64 lanes) bind the unit-stride templates and
/// sit inside superblocks.
const VEC_STREAM_SRC: &str = r#"
    fn memset64(p: *i64, n: i64, v: i64) {
        for (var i: i64 = 0; i < n; i = i + 1) {
            p[i] = v;
        }
    }
    fn triad(a: *f64, b: *f64, c: *f64, n: i64, k: f64) {
        for (var i: i64 = 0; i < n; i = i + 1) {
            a[i] = b[i] + k * c[i];
        }
    }
    fn scale32(f: *f32, n: i64, k: f32) {
        for (var i: i64 = 0; i < n; i = i + 1) {
            f[i] = f[i] * k + 0.5;
        }
    }
"#;

/// Guest memory of the vectorized-stream runs.
const VEC_MEM: u64 = 1 << 20;

/// The vector platforms and their compiled stream module.
fn vec_stream_modules() -> Vec<(PlatformSpec, mperf_ir::Module)> {
    use mperf_ir::transform::vectorize::VectorizePass;
    use mperf_roofline::microbench::vec_caps_for;
    use mperf_sim::Platform;
    [
        Platform::SpacemitX60,
        Platform::TheadC910,
        Platform::IntelI5_1135G7,
    ]
    .into_iter()
    .map(|p| {
        let mut module = mperf_ir::compile("vec-stream", VEC_STREAM_SRC).unwrap();
        PassManager::standard().run(&mut module);
        let report = VectorizePass::new(vec_caps_for(p)).run_with_report(&mut module);
        assert!(
            report.vectorized() >= 3,
            "{p:?}: every stream loop vectorizes: {report:?}"
        );
        (p.spec(), module)
    })
    .collect()
}

/// Stage the stream's arrays and run memset, triad and scale over `n`
/// elements. With `oob_tail = Some(k)`, the triad's destination starts
/// `k` elements before the end of guest memory, so a vector store
/// straddles the end (or lies past it) and traps mid-block after
/// writing its in-bounds lanes. Returns the first error, if any, and
/// the guest bytes of every array.
fn vec_stream_run(vm: &mut Vm, n: i64, oob_tail: Option<u64>) -> (Option<String>, Vec<u8>) {
    let bytes = n as u64 * 8;
    let p = vm.mem.alloc(bytes, 64).unwrap();
    let b = vm.mem.alloc(bytes, 64).unwrap();
    let c = vm.mem.alloc(bytes, 64).unwrap();
    let f = vm.mem.alloc(n as u64 * 4, 64).unwrap();
    let a = match oob_tail {
        Some(k) => VEC_MEM - 8 * k,
        None => vm.mem.alloc(bytes, 64).unwrap(),
    };
    for i in 0..n as u64 {
        vm.mem.write_f64(b + 8 * i, i as f64 * 0.25).unwrap();
        vm.mem.write_f64(c + 8 * i, 1.0 - i as f64).unwrap();
        vm.mem.write_f32(f + 4 * i, i as f32 / 3.0).unwrap();
    }
    let ptr = |x: u64| Value::I64(x as i64);
    let calls: [(&str, Vec<Value>); 3] = [
        (
            "memset64",
            vec![ptr(p), Value::I64(n), Value::I64(n * 7 - 3)],
        ),
        (
            "triad",
            vec![ptr(a), ptr(b), ptr(c), Value::I64(n), Value::F64(3.0)],
        ),
        ("scale32", vec![ptr(f), Value::I64(n), Value::F32(1.5)]),
    ];
    let mut err = None;
    for (entry, args) in calls {
        if let Err(e) = vm.call(entry, &args) {
            err = Some(format!("{entry}: {e:?}"));
            break;
        }
    }
    let mut mem = Vec::new();
    for (base, len) in [(p, bytes), (b, bytes), (c, bytes), (f, n as u64 * 4)] {
        mem.extend_from_slice(vm.mem.slice(base, len).unwrap());
    }
    let a_len = match oob_tail {
        Some(k) => 8 * k,
        None => bytes,
    };
    mem.extend_from_slice(vm.mem.slice(a, a_len).unwrap());
    (err, mem)
}

/// Vectorized programs are engine-exact too: memset, triad and an f32
/// scale compiled with the x60, c910 and i5 vector capabilities return,
/// store and count the same on every engine configuration as on the
/// reference interpreter — ExecStats, cycles, instructions, PMU counter
/// files and guest memory — including a vector store that runs off the
/// end of guest memory and traps mid-superblock after writing its
/// in-bounds lanes. The threaded engine must actually run those vector
/// memory ops inside superblocks. The same stream compiled scalar for
/// the u74 runs long enough to span several quiet block chains, and its
/// off-the-end triad store traps inside one; there the threaded engine
/// must actually chain blocks.
#[test]
fn vectorized_stream_matches_reference() {
    let mut scalar = mperf_ir::compile("scalar-stream", VEC_STREAM_SRC).unwrap();
    PassManager::standard().run(&mut scalar);
    let modules = vec_stream_modules()
        .into_iter()
        .map(|(spec, module)| (spec, module, true))
        .chain([(PlatformSpec::u74(), scalar, false)]);
    for (spec, module, vectorized) in modules {
        let cases: &[(i64, Option<u64>)] = if vectorized {
            &[
                (1, None),
                (7, None),
                (64, None),
                (203, None),
                (64, Some(5)),
                (64, Some(8)),
                (33, Some(30)),
            ]
        } else {
            &[(7, None), (2000, None), (2000, Some(1500))]
        };
        if vectorized {
            assert_vector_memory_in_blocks(&spec, &module);
        }
        check_stream_cases(&spec, &module, cases);
    }
}

/// The threaded engine runs a vectorized stream's vector memory ops
/// inside superblocks.
fn assert_vector_memory_in_blocks(spec: &PlatformSpec, module: &mperf_ir::Module) {
    let dec = mperf_vm::decode_module(module);
    let in_block = dec.funcs.iter().zip(&dec.threaded).any(|(df, tf)| {
        tf.blocks.iter().any(|b| {
            df.ops[b.start as usize..=b.last as usize].iter().any(|op| {
                matches!(
                    op,
                    mperf_vm::DecodedOp::Load { lanes, .. }
                        | mperf_vm::DecodedOp::Store { lanes, .. } if *lanes > 1
                )
            })
        })
    });
    assert!(
        in_block,
        "{}: vector memory runs inside superblocks",
        spec.name
    );
}

/// [`vectorized_stream_matches_reference`]'s comparison: each
/// `(n, oob_tail)` case of [`vec_stream_run`] on every engine
/// configuration against the reference interpreter.
fn check_stream_cases(
    spec: &PlatformSpec,
    module: &mperf_ir::Module,
    cases: &[(i64, Option<u64>)],
) {
    for &(n, oob_tail) in cases {
        let run = |engine: Engine, fuse: bool, regalloc: bool| {
            let mut vm = Vm::with_memory(module, Core::new(spec.clone()), VEC_MEM as usize);
            vm.set_engine(engine);
            vm.set_fusion(fuse);
            vm.set_regalloc(regalloc);
            let (err, mem) = vec_stream_run(&mut vm, n, oob_tail);
            let pmu: Vec<u64> = (0..mperf_sim::pmu::NUM_COUNTERS)
                .map(|i| vm.core.pmu().read(i))
                .collect();
            if engine == Engine::Threaded && n > 1000 {
                let blocks = vm.block_dynamics();
                assert!(
                    blocks.commits < blocks.entered,
                    "{} n={n}: quiet blocks chain: {blocks:?}",
                    spec.name
                );
            }
            (
                err,
                vm.stats(),
                vm.core.cycles(),
                vm.core.instructions(),
                pmu,
                mem,
            )
        };
        let reference = run(Engine::Reference, true, true);
        assert_eq!(
            reference.0.is_some(),
            oob_tail.is_some(),
            "{} n={n}: only the off-the-end run traps: {:?}",
            spec.name,
            reference.0
        );
        for (label, engine, fuse, regalloc) in engine_matrix() {
            let got = run(engine, fuse, regalloc);
            let ctx = format!("{} n={n} oob={oob_tail:?} ({label})", spec.name);
            assert_eq!(reference.0, got.0, "trap: {ctx}");
            assert_eq!(reference.1, got.1, "ExecStats: {ctx}");
            assert_eq!(reference.2, got.2, "cycles: {ctx}");
            assert_eq!(reference.3, got.3, "instructions: {ctx}");
            assert_eq!(reference.4, got.4, "PMU counters: {ctx}");
            assert!(reference.5 == got.5, "guest memory: {ctx}");
        }
    }
}

/// Sampling over vectorized code is engine-exact: with cycle leaders
/// (the x60 u-mode-cycles workaround, direct cycles on c910 and i5),
/// instruction leaders and cache-reference leaders, at periods 1, 7 and
/// 997, every engine configuration takes the same samples (ip,
/// callchain, time, group values) and ends with the same counters,
/// overflow status and cycles as the reference interpreter — so the
/// overflow lands on the same op when it is a vector load or store
/// inside a superblock.
#[test]
fn vectorized_stream_sampling_matches_reference() {
    use mperf_event::{EventKind, HwCounter, PerfEventAttr, PerfKernel, ReadFormat};
    use mperf_sim::HwEvent;

    let cycles = EventKind::Hardware(HwCounter::Cycles);
    let instructions = EventKind::Hardware(HwCounter::Instructions);
    let cache_refs = EventKind::Hardware(HwCounter::CacheReferences);
    let umc = EventKind::Raw(PlatformSpec::x60().event_code(HwEvent::UModeCycles));
    let handler_cycles =
        PerfKernel::new(&mut Core::new(PlatformSpec::c910())).sample_overhead_cycles;

    for (spec, module) in vec_stream_modules() {
        let leaders = if spec.name == PlatformSpec::x60().name {
            // Only the mode-cycle events can sample on the x60.
            vec![(umc, "u-mode-cycles")]
        } else {
            vec![
                (cycles, "cycles"),
                (instructions, "instructions"),
                (cache_refs, "cache-references"),
            ]
        };
        for (leader, lname) in leaders {
            for period in [1u64, 7, 997] {
                let n = if period < 10 { 24 } else { 4000 };
                let run = |engine: Engine, fuse: bool, regalloc: bool| {
                    let mut core = Core::new(spec.clone());
                    let mut kernel = PerfKernel::new(&mut core);
                    let attr = PerfEventAttr {
                        kind: leader,
                        sample_period: period,
                        sample_type: SampleType::full(),
                        read_format: ReadFormat {
                            group: true,
                            id: true,
                        },
                        disabled: true,
                    };
                    let fd = kernel.open(&mut core, attr, None).unwrap();
                    for m in [cycles, instructions] {
                        if m != leader {
                            kernel
                                .open(&mut core, PerfEventAttr::counting(m), Some(fd))
                                .unwrap();
                        }
                    }
                    kernel.enable(&mut core, fd).unwrap();
                    let mut vm = Vm::with_memory(&module, core, VEC_MEM as usize);
                    vm.set_engine(engine);
                    vm.set_fusion(fuse);
                    vm.set_regalloc(regalloc);
                    vm.attach_kernel(kernel);
                    let (err, mem) = vec_stream_run(&mut vm, n, None);
                    assert_eq!(err, None);
                    let mut kernel = vm.kernel.take().unwrap();
                    let records = kernel.drain_records(fd).unwrap();
                    let counters: Vec<u64> = (0..mperf_sim::pmu::NUM_COUNTERS)
                        .map(|i| vm.core.pmu().read(i))
                        .collect();
                    (
                        records,
                        kernel.samples_taken(),
                        counters,
                        vm.core.pmu().overflow_status(),
                        vm.core.cycles(),
                        mem,
                    )
                };
                let reference = run(Engine::Reference, true, true);
                // A cycles leader below the handler's own cost stops after
                // one sample (see `decoded_engine_sampling_matches_reference`).
                let stalls = leader == cycles && period < handler_cycles;
                assert!(
                    reference.1 >= 3 || (stalls && reference.1 == 1),
                    "{} {lname} period {period}: expected a sample stream: {}",
                    spec.name,
                    reference.1
                );
                for (cfg, engine, fuse, regalloc) in engine_matrix() {
                    let got = run(engine, fuse, regalloc);
                    let ctx = format!("{} {lname} period {period} ({cfg})", spec.name);
                    assert_eq!(reference.1, got.1, "sample counts: {ctx}");
                    assert_eq!(reference.0, got.0, "sample records: {ctx}");
                    assert_eq!(reference.2, got.2, "counter files: {ctx}");
                    assert_eq!(
                        (reference.3, reference.4),
                        (got.3, got.4),
                        "overflow status or cycles: {ctx}"
                    );
                    assert!(reference.5 == got.5, "guest memory: {ctx}");
                }
            }
        }
    }
}
