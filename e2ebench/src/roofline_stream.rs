//! `roofline-stream`: the memory-bound triad through `miniperf roofline`
//! on every platform model, `miniperf sweep`, and `miniperf sweep
//! --shards 2`, one child process at a time.
//!
//! Nearly all the time goes to the simulated cache model and machine
//! characterization; sampling does no work. This is the only workload
//! that runs the shard transport.

use crate::layers::{self, CallCounts};
use crate::metrics::{expect_eq, RepeatCheck, OP_SPAN};
use crate::probe::HostProbe;
use crate::{run_rounds, sys, trace, Args, Outcome, Rng, Scratch, SETUPS};
use miniperf::cli::{triad_sweep_cells, SweepOutcome, CLI_TRIAD_N, KERNEL};
use miniperf::shard_exec::{cli_triad_setup, SetupSpec, ShardedCellSpec, ShardedSweepOptions};
use miniperf::sweep_supervisor::encode_run;
use miniperf::{run_roofline_sweep, run_roofline_sweep_sharded, RooflineRequest, RooflineRun};
use mperf_ir::Module;
use mperf_roofline::{characterize_with_jobs, plot, Point};
use mperf_sim::Platform;
use mperf_sweep::{default_jobs, Journal, RetryPolicy, WorkerCmd};
use mperf_vm::{DecodedModule, ExecConfig};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
enum Cmd {
    Roofline(Platform),
    Sweep,
    Sharded,
}

const KINDS: [(&str, Cmd); 6] = [
    ("roofline:x60", Cmd::Roofline(Platform::SpacemitX60)),
    ("roofline:c910", Cmd::Roofline(Platform::TheadC910)),
    ("roofline:u74", Cmd::Roofline(Platform::SifiveU74)),
    ("roofline:i5", Cmd::Roofline(Platform::IntelI5_1135G7)),
    ("sweep", Cmd::Sweep),
    ("sweep-sharded", Cmd::Sharded),
];

fn cli_name(p: Platform) -> &'static str {
    match p {
        Platform::SpacemitX60 => "x60",
        Platform::TheadC910 => "c910",
        Platform::SifiveU74 => "u74",
        Platform::IntelI5_1135G7 => "i5",
    }
}

fn policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        retry_panics: true,
    }
}

fn platform_names() -> Vec<String> {
    Platform::ALL
        .iter()
        .map(|p| p.spec().name.to_string())
        .collect()
}

/// The triad summary line `roofline` prints for `run`.
fn roofline_header(run: &RooflineRun) -> String {
    let r = &run.regions[0];
    format!(
        "{}: triad {:.2} GFLOP/s at AI {:.3} FLOP/B (overhead {:.2}x)",
        run.platform_name,
        r.gflops(run.freq_hz),
        r.ai(),
        r.overhead_factor()
    )
}

/// The triad moves 24 bytes (two loads, one store of `f64`) for 2 FLOP
/// per element on every platform.
fn check_intensity(run: &RooflineRun) -> Result<(), String> {
    let r = run.regions.first().ok_or("no triad region")?;
    if r.flops == 0 || r.flops * 24 != r.bytes() * 2 {
        return Err(format!(
            "{}: triad AI is {} FLOP / {} B, want 2 / 24",
            run.platform_name,
            r.flops,
            r.bytes()
        ));
    }
    Ok(())
}

fn cell_lines(stdout: &str) -> Vec<&str> {
    stdout.lines().filter(|l| l.starts_with("  ")).collect()
}

/// What every operation's output is checked against.
struct References {
    /// The in-process supervised sweep at the CLI's triad size.
    runs: Vec<RooflineRun>,
    /// Its rendered per-cell lines.
    cells: Vec<String>,
}

fn set_up(args: &Args, jobs: usize) -> Result<References, String> {
    let probe = sys::run_child(&args.miniperf, &["probe"]).map_err(|e| e.to_string())?;
    if !probe.status.success() {
        return Err(format!("miniperf probe exited with {}", probe.status));
    }
    let modules: Vec<Module> = Platform::ALL
        .iter()
        .map(|&p| miniperf::cli::triad_module(p))
        .collect();
    let cells = triad_sweep_cells(&modules, None, CLI_TRIAD_N);
    let sweep = RooflineRequest::new()
        .jobs(jobs)
        .policy(policy())
        .run_supervised(&cells)
        .map_err(|e| e.to_string())?;
    let outcome = SweepOutcome::from_supervised(&sweep, platform_names());
    expect_eq("reference sweep exit code", outcome.exit_code(), 0)?;
    let runs: Vec<RooflineRun> = outcome.results.iter().flatten().cloned().collect();
    for run in &runs {
        check_intensity(run)?;
    }
    let body = outcome.body();
    Ok(References {
        runs,
        cells: cell_lines(&body).into_iter().map(String::from).collect(),
    })
}

/// One CLI invocation as a child process. Returns its stdout.
fn op_child(args: &Args, cmd: Cmd, refs: &References) -> Result<String, String> {
    let argv: Vec<&str> = match cmd {
        Cmd::Roofline(p) => vec!["roofline", "--platform", cli_name(p)],
        Cmd::Sweep => vec!["sweep"],
        Cmd::Sharded => vec!["sweep", "--shards", "2"],
    };
    let out = sys::run_child(&args.miniperf, &argv).map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    match cmd {
        Cmd::Roofline(p) => {
            let i = Platform::ALL.iter().position(|&q| q == p).expect("modeled");
            let header = stdout.lines().nth(1).unwrap_or_default();
            expect_eq(
                "triad line",
                header,
                roofline_header(&refs.runs[i]).as_str(),
            )?;
        }
        Cmd::Sweep | Cmd::Sharded => {
            // Sharded cells must equal the in-process sweep byte for byte.
            expect_eq(
                "sweep cells",
                cell_lines(&stdout),
                refs.cells.iter().map(String::as_str).collect(),
            )?;
            let summary = stdout.lines().last().unwrap_or_default();
            if !summary.starts_with("sweep: 4/4 cells completed, 0 failed") {
                return Err(format!("sweep summary {summary:?}"));
            }
        }
    }
    Ok(stdout)
}

/// Modules and decodes the in-process replicas reuse for their plain
/// calls.
struct Baselines {
    /// The uninstrumented triad and its decode, per platform.
    plain: Vec<(Module, Arc<DecodedModule>)>,
}

impl Baselines {
    fn new() -> Baselines {
        let plain = Platform::ALL
            .iter()
            .map(|&p| {
                let m =
                    mperf_workloads::compile_for("cli", KERNEL, p, false).expect("triad compiles");
                let d = layers::decode(&m, ExecConfig::default());
                (m, d)
            })
            .collect();
        Baselines { plain }
    }

    fn plain_call(&self, p: Platform) -> Result<CallCounts, String> {
        let i = Platform::ALL.iter().position(|&q| q == p).expect("modeled");
        let (m, d) = &self.plain[i];
        let setup = cli_triad_setup(CLI_TRIAD_N);
        layers::plain_call(m, d, p, "triad", &setup)
    }
}

/// `miniperf roofline --platform p` in process, one span per layer call.
/// Returns the run and everything the CLI prints after its `config:`
/// line.
fn roofline_replica(p: Platform, jobs: usize) -> Result<(RooflineRun, String), String> {
    let cfg = ExecConfig::default();
    let module = layers::compile("cli", KERNEL, p, true);
    let decoded = layers::decode(&module, cfg);
    let setup = cli_triad_setup(CLI_TRIAD_N);
    let run = trace::span("core.phases", || {
        RooflineRequest::new().jobs(jobs).config(cfg).run_prepared(
            &module,
            &decoded,
            &p.spec(),
            "triad",
            &setup,
        )
    })
    .map_err(|e| e.to_string())?;
    let ch = trace::span("roofline.characterize", || {
        characterize_with_jobs(p, 8 << 20, jobs)
    });
    let chart = trace::span("roofline.plot", || {
        let r = &run.regions[0];
        let mut model = ch.to_model();
        model.add_point(Point {
            name: "triad".into(),
            ai: r.ai(),
            gflops: r.gflops(run.freq_hz),
        });
        plot::ascii(&model, 64, 16)
    });
    let body = trace::span("core.render", || {
        format!("{}\n\n{chart}", roofline_header(&run))
    });
    Ok((run, body))
}

/// The cells' modules and decodes, and the rendered sweep.
type SweepReplica = (Vec<Module>, Vec<Arc<DecodedModule>>, String);

/// `miniperf sweep` in process: compile and decode each cell, supervise.
fn sweep_replica(jobs: usize) -> Result<SweepReplica, String> {
    let modules: Vec<Module> = Platform::ALL
        .iter()
        .map(|&p| layers::compile("cli", KERNEL, p, true))
        .collect();
    let decoded: Vec<Arc<DecodedModule>> = modules
        .iter()
        .map(|m| layers::decode(m, ExecConfig::default()))
        .collect();
    let cells = triad_sweep_cells(&modules, Some(decoded.clone()), CLI_TRIAD_N);
    let sweep = trace::span("sweep.supervised", || {
        RooflineRequest::new()
            .jobs(jobs)
            .policy(policy())
            .run_supervised(&cells)
    })
    .map_err(|e| e.to_string())?;
    trace::count("sweep.retries", sweep.report.retried.len() as u64);
    let body = trace::span("core.render", || {
        SweepOutcome::from_supervised(&sweep, platform_names()).body()
    });
    drop(cells);
    Ok((modules, decoded, body))
}

/// `miniperf sweep --shards 2` in process: the same cells over worker
/// processes of the built binary.
fn sharded_replica(args: &Args) -> Result<Vec<Option<RooflineRun>>, String> {
    let specs: Vec<ShardedCellSpec> = Platform::ALL
        .iter()
        .map(|&p| ShardedCellSpec {
            workload: "cli".into(),
            source: KERNEL.into(),
            entry: "triad".into(),
            platform: p,
            setup: SetupSpec::CliTriad { n: CLI_TRIAD_N },
        })
        .collect();
    let mut worker = WorkerCmd::new(&args.miniperf);
    worker.args.push("sweep-worker".into());
    let opts = ShardedSweepOptions {
        shards: 2,
        cfg: ExecConfig::default(),
        policy: policy(),
        journal: None,
        resume: false,
        deadline_ticks: 600,
        tick: Duration::from_millis(50),
        worker,
    };
    let sweep = trace::span("sweep.sharded", || {
        run_roofline_sweep_sharded(&specs, &opts)
    })
    .map_err(|e| e.to_string())?;
    trace::count("sweep.retries", sweep.retried.len() as u64);
    if !sweep.all_ok() {
        return Err(format!(
            "sharded sweep: {} failed, {} skipped",
            sweep.failed.len(),
            sweep.skipped.len()
        ));
    }
    Ok(sweep.results)
}

/// Write the reference runs to a fresh journal and read them back, as a
/// keyed sweep checkpoints and resumes its cells.
fn journal_round_trip(dir: &Path, op: u64, runs: &[RooflineRun]) -> Result<(), String> {
    let path = dir.join(format!("op{op}.jrnl"));
    let payloads: Vec<Vec<u8>> = runs.iter().map(encode_run).collect();
    let mut j =
        trace::span("sweep.journal_open", || Journal::open(&path)).map_err(|e| e.to_string())?;
    for (key, p) in payloads.iter().enumerate() {
        trace::span("sweep.journal_append", || j.append(key as u64, p))
            .map_err(|e| e.to_string())?;
    }
    drop(j);
    let back =
        trace::span("sweep.journal_open", || Journal::open(&path)).map_err(|e| e.to_string())?;
    let read: Vec<&[u8]> = back.entries().iter().map(|(_, p)| p.as_slice()).collect();
    let want: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
    expect_eq("journal replay", read, want)?;
    std::fs::remove_file(&path).map_err(|e| e.to_string())
}

/// What the in-process replicas of the CLI commands share.
struct Replica<'a> {
    args: &'a Args,
    jobs: usize,
    refs: &'a References,
    /// What the CLI printed for each roofline kind.
    bodies: &'a BTreeMap<String, String>,
    base: &'a Baselines,
    scratch: &'a Path,
}

impl Replica<'_> {
    /// One in-process operation, spans around each layer call; returns
    /// the operation's latency in ms.
    fn run(&self, cmd: Cmd, kind: &str, op: u64, repeat: &mut RepeatCheck) -> Result<f64, String> {
        let t = Instant::now();
        match cmd {
            Cmd::Roofline(p) => {
                let got = trace::span(OP_SPAN, || roofline_replica(p, self.jobs));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let (run, body) = got?;
                let i = Platform::ALL.iter().position(|&q| q == p).expect("modeled");
                check_intensity(&run)?;
                expect_eq("roofline run", &run, &self.refs.runs[i])?;
                if let Some(child) = self.bodies.get(kind) {
                    expect_eq("roofline output vs the CLI", &body, child)?;
                }
                let counts = trace::span("bench.baseline", || self.base.plain_call(p))?;
                repeat.check(kind, counts)?;
                Ok(ms)
            }
            Cmd::Sweep => {
                let got = trace::span(OP_SPAN, || sweep_replica(self.jobs));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let (modules, decoded, body) = got?;
                expect_eq(
                    "sweep cells",
                    cell_lines(&body),
                    self.refs.cells.iter().map(String::as_str).collect(),
                )?;
                // The same cells without supervision, for its overhead.
                let cells = triad_sweep_cells(&modules, Some(decoded), CLI_TRIAD_N);
                let direct = trace::span("bench.baseline", || {
                    trace::span("sweep.direct", || run_roofline_sweep(&cells, self.jobs))
                });
                let direct: Vec<RooflineRun> = direct
                    .into_iter()
                    .collect::<Result<_, _>>()
                    .map_err(|e| e.to_string())?;
                expect_eq("unsupervised sweep", &direct, &self.refs.runs)?;
                trace::span("bench.baseline", || {
                    journal_round_trip(self.scratch, op, &self.refs.runs)
                })?;
                Ok(ms)
            }
            Cmd::Sharded => {
                let got = trace::span(OP_SPAN, || sharded_replica(self.args));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let runs: Vec<RooflineRun> = got?.into_iter().flatten().collect();
                expect_eq("sharded runs vs in-process", &runs, &self.refs.runs)?;
                Ok(ms)
            }
        }
    }
}

pub fn run(args: &Args, scratch: &Scratch) -> Result<Outcome, String> {
    let jobs = default_jobs();
    let mut out = Outcome {
        groups: vec![
            ("roofline_ms", "roofline"),
            ("sweep_ms", "sweep"),
            ("sweep_sharded_ms", "sweep-sharded"),
        ],
        ..Outcome::default()
    };
    let mut probe = HostProbe::default();
    let mut refs = None;
    for _ in 0..SETUPS {
        let got = out.timed_setup(&mut probe, || set_up(args, jobs));
        match (got, &refs) {
            (Err(e), _) => {
                out.tally.record("set-up", Err(e));
            }
            (Ok(r), None) => refs = Some(r),
            (Ok(r), Some(first)) => {
                let first: &References = first;
                out.tally.record(
                    "set-up",
                    expect_eq("references across set-ups", &r.runs, &first.runs),
                );
            }
        }
    }
    let refs = refs.ok_or_else(|| out.tally.setup_failed())?;

    // Traced runs replay the CLI in process; what each platform's replica
    // renders is checked against the CLI's own output once.
    let mut bodies: BTreeMap<String, String> = BTreeMap::new();
    let base = if args.trace {
        for (kind, cmd) in KINDS {
            if let Cmd::Roofline(p) = cmd {
                let stdout = op_child(args, cmd, &refs);
                if let Ok(stdout) = &stdout {
                    let body = stdout.split_once('\n').map_or("", |(_, b)| b);
                    bodies.insert(kind.to_string(), body.to_string());
                }
                out.tally.record(kind, stdout.map(|_| ()));
                out.tally
                    .record("pipeline", layers::check_pipeline("cli", KERNEL, p, true));
            }
        }
        Some(Baselines::new())
    } else {
        None
    };

    let mut first_stdout: BTreeMap<&str, String> = BTreeMap::new();
    let mut repeat = RepeatCheck::default();
    let mut rng = Rng::new(args.seed);
    let names: Vec<&str> = KINDS.iter().map(|(k, _)| *k).collect();
    let mut op = 0;
    run_rounds(args, &mut rng, &mut probe, &names, &mut out, |i| {
        let (kind, cmd) = KINDS[i];
        op += 1;
        match &base {
            Some(base) => {
                let ctx = Replica {
                    args,
                    jobs,
                    refs: &refs,
                    bodies: &bodies,
                    base,
                    scratch: scratch.path(),
                };
                ctx.run(cmd, kind, op, &mut repeat)
            }
            None => {
                let t = Instant::now();
                let stdout = op_child(args, cmd, &refs)?;
                let ms = t.elapsed().as_secs_f64() * 1e3;
                // Every run of a command prints what its first run did.
                let first = first_stdout.entry(kind).or_insert_with(|| stdout.clone());
                expect_eq("output vs the first run", &stdout, first)?;
                Ok(ms)
            }
        }
    });
    out.peak_rss_kb = if args.trace {
        sys::self_peak_rss_kb()
    } else {
        sys::children_peak_rss_kb()
    };
    Ok(out)
}
