//! `profile-sqlite`: `record` and `stat` of small, branchy, call-heavy
//! programs, in process, each on a fresh VM with a fresh compile.
//!
//! Dispatch, PMU overflow, the ring buffer, callchains and the
//! hotspot/folding report dominate; machine characterization never runs.

use crate::layers::{self, CallCounts};
use crate::metrics::{expect_eq, RepeatCheck, OP_SPAN};
use crate::probe::HostProbe;
use crate::{run_rounds, sys, trace, Args, Outcome, Rng, Scratch, SETUPS};
use miniperf::cli::{record_body, stat_body, stat_events, DEMO};
use miniperf::{record, stat, RecordConfig, SamplingStrategy};
use mperf_ir::Module;
use mperf_sim::{Core, Platform};
use mperf_vm::{DecodedModule, ExecConfig, Value, Vm, VmError};
use mperf_workloads::sqlite_mini::{self, SqliteBench};
use std::sync::Arc;
use std::time::Instant;

/// Sampling period for `record` (a prime, so samples do not alias loop
/// trip counts).
const PERIOD: u64 = 997;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Action {
    Record,
    Stat,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Program {
    Sqlite,
    Demo,
}

impl Program {
    /// `(compilation unit, source, entry)`.
    fn source(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Program::Sqlite => ("sqlite", sqlite_mini::SOURCE, sqlite_mini::ENTRY),
            Program::Demo => ("cli", DEMO, "demo"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Kind {
    name: &'static str,
    action: Action,
    program: Program,
    platform: Platform,
}

const fn kind(name: &'static str, action: Action, program: Program, platform: Platform) -> Kind {
    Kind {
        name,
        action,
        program,
        platform,
    }
}

/// x60 samples through the `ModeCycleLeaderGroup` workaround, c910
/// through direct overflow sampling.
const KINDS: [Kind; 8] = [
    kind(
        "record:sqlite:x60",
        Action::Record,
        Program::Sqlite,
        Platform::SpacemitX60,
    ),
    kind(
        "record:sqlite:c910",
        Action::Record,
        Program::Sqlite,
        Platform::TheadC910,
    ),
    kind(
        "record:demo:x60",
        Action::Record,
        Program::Demo,
        Platform::SpacemitX60,
    ),
    kind(
        "record:demo:c910",
        Action::Record,
        Program::Demo,
        Platform::TheadC910,
    ),
    kind(
        "stat:sqlite:x60",
        Action::Stat,
        Program::Sqlite,
        Platform::SpacemitX60,
    ),
    kind(
        "stat:sqlite:c910",
        Action::Stat,
        Program::Sqlite,
        Platform::TheadC910,
    ),
    kind(
        "stat:demo:x60",
        Action::Stat,
        Program::Demo,
        Platform::SpacemitX60,
    ),
    kind(
        "stat:demo:c910",
        Action::Stat,
        Program::Demo,
        Platform::TheadC910,
    ),
];

fn expected_strategy(p: Platform) -> SamplingStrategy {
    match p {
        Platform::SpacemitX60 => SamplingStrategy::ModeCycleLeaderGroup,
        _ => SamplingStrategy::Direct,
    }
}

/// Guest data for `program`: the sqlite table comes from the workload
/// seed, the demo data is fixed.
fn stage(program: Program, data_seed: u64, vm: &mut Vm) -> Result<Vec<Value>, VmError> {
    match program {
        Program::Sqlite => SqliteBench {
            seed: data_seed,
            ..SqliteBench::default()
        }
        .setup(vm),
        Program::Demo => Ok(miniperf::cli::demo_args(vm)),
    }
}

/// Measure, and render what the CLI prints, on a VM over `module`
/// (decoding on first call unless `decoded` is given).
fn measure(
    k: &Kind,
    module: &Module,
    data_seed: u64,
    decoded: Option<Arc<DecodedModule>>,
) -> Result<String, String> {
    let (_, _, entry) = k.program.source();
    let mut vm = Vm::new(module, Core::new(k.platform.spec()));
    vm.configure(ExecConfig::default());
    if let Some(d) = decoded {
        vm.set_decoded(d);
    }
    let args = stage(k.program, data_seed, &mut vm).map_err(|e| format!("setup: {e}"))?;
    match k.action {
        Action::Record => {
            let cfg = RecordConfig { period: PERIOD };
            let profile = trace::span("perf_event.record", || record(&mut vm, entry, &args, cfg))
                .map_err(|e| e.to_string())?;
            expect_eq("strategy", profile.strategy, expected_strategy(k.platform))?;
            if profile.samples.is_empty() {
                return Err("no samples".into());
            }
            trace::count("perf_event.samples", profile.samples.len() as u64);
            Ok(trace::span("core.render", || {
                record_body(&profile, k.platform, PERIOD)
            }))
        }
        Action::Stat => {
            let events = stat_events(k.platform);
            let rep = trace::span("perf_event.stat", || stat(&mut vm, entry, &args, &events))
                .map_err(|e| e.to_string())?;
            Ok(trace::span("core.render", || stat_body(k.platform, &rep)))
        }
    }
}

/// One operation as a CLI invocation pays for it: compile, decode, run,
/// render.
fn op_untraced(k: &Kind, data_seed: u64) -> Result<String, String> {
    let (unit, source, _) = k.program.source();
    let module =
        mperf_workloads::compile_for(unit, source, k.platform, false).map_err(|e| e.to_string())?;
    measure(k, &module, data_seed, None)
}

/// The same operation through the split layers, inside the operation's
/// span, then a plain call of the same inputs outside it, for the
/// sampling cost and the exact simulation counts. Returns the rendered
/// output, the plain call's counts and the operation's latency in ms.
fn op_layered(k: &Kind, data_seed: u64) -> Result<(String, CallCounts, f64), String> {
    let (unit, source, entry) = k.program.source();
    let t = Instant::now();
    let (module, decoded, body) = trace::span(OP_SPAN, || {
        let module = layers::compile(unit, source, k.platform, false);
        let decoded = layers::decode(&module, ExecConfig::default());
        let body = measure(k, &module, data_seed, Some(Arc::clone(&decoded)));
        (module, decoded, body)
    });
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let body = body?;
    let setup = move |vm: &mut Vm| stage(k.program, data_seed, vm);
    let counts = trace::span("bench.baseline", || {
        layers::plain_call(&module, &decoded, k.platform, entry, &setup)
    })?;
    Ok((body, counts, ms))
}

struct References {
    bodies: Vec<String>,
    /// Plain-call counts (return value, cycles, …) per kind.
    calls: Vec<CallCounts>,
}

fn set_up(data_seed: u64, layered: bool) -> Result<References, String> {
    let mut bodies = Vec::new();
    let mut calls: Vec<CallCounts> = Vec::new();
    for (i, k) in KINDS.iter().enumerate() {
        bodies.push(op_untraced(k, data_seed)?);
        // `record` and `stat` of one program on one platform share a
        // plain call.
        if let Some(j) = KINDS[..i]
            .iter()
            .position(|o| o.program == k.program && o.platform == k.platform)
        {
            calls.push(calls[j].clone());
            continue;
        }
        let (unit, source, entry) = k.program.source();
        if layered {
            layers::check_pipeline(unit, source, k.platform, false)?;
        }
        // The program's return value and counts; every later set-up and
        // traced operation must repeat them.
        let module = mperf_workloads::compile_for(unit, source, k.platform, false)
            .map_err(|e| e.to_string())?;
        let decoded = layers::decode(&module, ExecConfig::default());
        let setup = move |vm: &mut Vm| stage(k.program, data_seed, vm);
        calls.push(layers::plain_call(
            &module, &decoded, k.platform, entry, &setup,
        )?);
    }
    Ok(References { bodies, calls })
}

pub fn run(args: &Args, _scratch: &Scratch) -> Result<Outcome, String> {
    let mut out = Outcome {
        groups: vec![("record_ms", "record"), ("stat_ms", "stat")],
        ..Outcome::default()
    };
    let mut rng = Rng::new(args.seed);
    let mut probe = HostProbe::default();
    let data_seed = rng.next_u64();
    let mut refs: Option<References> = None;
    for _ in 0..SETUPS {
        let got = out.timed_setup(&mut probe, || set_up(data_seed, args.trace));
        match (got, &refs) {
            (Err(e), _) => {
                out.tally.record("set-up", Err(e));
            }
            (Ok(r), None) => refs = Some(r),
            (Ok(r), Some(first)) => {
                let same = r.bodies == first.bodies && r.calls == first.calls;
                out.tally.record(
                    "set-up",
                    same.then_some(())
                        .ok_or_else(|| "references differ between set-ups".to_string()),
                );
            }
        }
    }
    let refs = refs.ok_or_else(|| out.tally.setup_failed())?;

    let mut repeat = RepeatCheck::default();
    let names: Vec<&str> = KINDS.iter().map(|k| k.name).collect();
    run_rounds(args, &mut rng, &mut probe, &names, &mut out, |i| {
        let k = &KINDS[i];
        if args.trace {
            let (body, counts, ms) = op_layered(k, data_seed)?;
            expect_eq("output", &body, &refs.bodies[i])?;
            expect_eq("plain-call counts", &counts, &refs.calls[i])?;
            repeat.check(k.name, counts)?;
            Ok(ms)
        } else {
            let t = Instant::now();
            let body = op_untraced(k, data_seed)?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            expect_eq("output", &body, &refs.bodies[i])?;
            Ok(ms)
        }
    });
    out.peak_rss_kb = sys::self_peak_rss_kb();
    Ok(out)
}
