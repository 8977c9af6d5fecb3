//! `serve-mixed`: an in-process `miniperf serve` daemon with a state and
//! a cache directory, and two client connections submitting a seeded mix
//! of `stat`, `record`, small sweeps, keyed sweeps (journal writes) and
//! resubmitted keys (journal reads).
//!
//! With the decode cache warm, the wire codec, the socket, queueing,
//! supervision and the journal make up a large share of each job.
//! `roofline` jobs are left out: the submit client recomputes the machine
//! characterization when it renders, which would hide the serve layer.

use crate::metrics::{expect_eq, OP_SPAN};
use crate::probe::HostProbe;
use crate::stats::KindLatencies;
use crate::{sys, trace, traced_round, Args, Outcome, Rng, Scratch, SETUPS};
use miniperf::cli::{
    compile_demo, demo_args, record_body, stat_body, stat_events, triad_module, triad_sweep_cells,
    CommonOpts, JobKind, JobSpec, SweepOutcome,
};
use miniperf::serve::{decode_profile_meta, decode_sample, decode_stat, ServeHandle};
use miniperf::sweep_supervisor::decode_run;
use miniperf::{record, stat, RecordConfig, RooflineRequest, RooflineRun, ServeOptions};
use mperf_sim::{Core, Platform};
use mperf_sweep::proto::Msg;
use mperf_sweep::{ClientSession, RetryPolicy};
use mperf_vm::Vm;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Triad size of served sweeps: small, so the serve layers are a visible
/// share of each job.
const SWEEP_N: u64 = 4096;

/// Client connections. One generator thread alternates jobs between
/// them: with two concurrent clients on the 2-cpu host, scheduling
/// interleavings spread `op_ms` by 14% across seeds against 7% for one
/// closed loop.
const CLIENTS: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Job {
    Stat(Platform),
    Record(Platform),
    Sweep,
    /// A sweep under a fresh key: the daemon journals every cell.
    Keyed,
    /// A sweep under a key already journaled: every cell is read back.
    Resubmit,
}

const KINDS: [(&str, Job); 7] = [
    ("stat:x60", Job::Stat(Platform::SpacemitX60)),
    ("stat:c910", Job::Stat(Platform::TheadC910)),
    ("record:x60", Job::Record(Platform::SpacemitX60)),
    ("record:c910", Job::Record(Platform::TheadC910)),
    ("sweep", Job::Sweep),
    ("sweep:keyed", Job::Keyed),
    ("sweep:resubmit", Job::Resubmit),
];

type Session = ClientSession<BufReader<UnixStream>, UnixStream>;

fn connect(socket: &Path) -> Result<Session, String> {
    let stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    let read = stream.try_clone().map_err(|e| e.to_string())?;
    ClientSession::connect(BufReader::new(read), stream).map_err(|e| e.to_string())
}

fn spec(job: Job, key: &str) -> JobSpec {
    let opts = CommonOpts::default();
    let (kind, platform) = match job {
        Job::Stat(p) => (JobKind::Stat, p),
        Job::Record(p) => (JobKind::Record, p),
        Job::Sweep | Job::Keyed | Job::Resubmit => (JobKind::Sweep, opts.platform),
    };
    let mut spec = JobSpec::from_opts(kind, &CommonOpts { platform, ..opts });
    spec.n = SWEEP_N;
    if let Job::Keyed | Job::Resubmit = job {
        spec.job_key = key.to_string();
    }
    spec
}

/// The batch results every served job must equal.
struct References {
    /// `(platform, stat body, record body)`.
    demo: Vec<(Platform, String, String)>,
    sweep: String,
    /// The sweep body when every cell comes back from the journal.
    resumed: String,
}

impl References {
    fn body(&self, job: Job) -> &str {
        let demo = |p: Platform| self.demo.iter().find(|d| d.0 == p).expect("modeled");
        match job {
            Job::Stat(p) => &demo(p).1,
            Job::Record(p) => &demo(p).2,
            Job::Sweep | Job::Keyed => &self.sweep,
            Job::Resubmit => &self.resumed,
        }
    }
}

fn batch_references(dir: &Path) -> Result<References, String> {
    let opts = CommonOpts::default();
    let mut demo = Vec::new();
    for p in [Platform::SpacemitX60, Platform::TheadC910] {
        let module = compile_demo(p);
        let mut vm = Vm::new(&module, Core::new(p.spec()));
        let args = demo_args(&mut vm);
        let rep = stat(&mut vm, "demo", &args, &stat_events(p)).map_err(|e| e.to_string())?;
        let mut vm = Vm::new(&module, Core::new(p.spec()));
        let args = demo_args(&mut vm);
        let cfg = RecordConfig {
            period: opts.period,
        };
        let prof = record(&mut vm, "demo", &args, cfg).map_err(|e| e.to_string())?;
        demo.push((p, stat_body(p, &rep), record_body(&prof, p, opts.period)));
    }
    let modules: Vec<_> = Platform::ALL.iter().map(|&p| triad_module(p)).collect();
    let cells = triad_sweep_cells(&modules, None, SWEEP_N);
    let journal = dir.join("reference.jrnl");
    let sweep_body = |resume: bool| -> Result<String, String> {
        let req = RooflineRequest::new()
            .jobs(opts.jobs)
            .policy(RetryPolicy {
                max_attempts: opts.retries,
                retry_panics: true,
            })
            .journal(journal.clone())
            .resume(resume);
        let sweep = req.run_supervised(&cells).map_err(|e| e.to_string())?;
        let outcome = SweepOutcome::from_supervised(&sweep, names());
        expect_eq("reference sweep exit code", outcome.exit_code(), 0)?;
        Ok(outcome.body())
    };
    let sweep = sweep_body(false)?;
    let resumed = sweep_body(true)?;
    if !resumed.contains("4 resumed from journal") {
        return Err(format!("reference resume did not resume: {resumed}"));
    }
    Ok(References {
        demo,
        sweep,
        resumed,
    })
}

fn names() -> Vec<String> {
    Platform::ALL
        .iter()
        .map(|p| p.spec().name.to_string())
        .collect()
}

/// One served job: its rendered output, its latency to the terminal
/// status, and to the first frame, in ms.
struct Served {
    body: String,
    ms: f64,
    first_frame_ms: f64,
}

fn submit(session: &mut Session, job: Job, key: &str) -> Result<Served, String> {
    let spec = spec(job, key);
    let t = Instant::now();
    let id =
        trace::span("serve.submit", || session.submit(spec.encode())).map_err(|e| e.to_string())?;
    let mut first = None;
    let mut samples = Vec::new();
    let mut runs: Vec<Option<RooflineRun>> = vec![None; Platform::ALL.len()];
    let mut bad = None;
    let res = trace::span("serve.wait", || {
        session.drain_job(id, |m| {
            first.get_or_insert_with(Instant::now);
            match m {
                Msg::Sample { payload, .. } => match decode_sample(payload) {
                    Ok(s) => samples.push(s),
                    Err(e) => bad = Some(e),
                },
                Msg::CellDone { index, payload, .. } => {
                    let i = *index as usize;
                    match Platform::ALL.get(i).map(|p| decode_run(payload, &p.spec())) {
                        Some(Ok(r)) => runs[i] = Some(r),
                        Some(Err(e)) => bad = Some(e),
                        None => bad = Some(format!("cell index {i} out of range")),
                    }
                }
                _ => {}
            }
        })
    })
    .map_err(|e| e.to_string())?;
    let done = Instant::now();
    if let Some(e) = bad {
        return Err(e);
    }
    if res.code != 0 {
        return Err(format!("job exited {}: {}", res.code, res.message));
    }
    let body = trace::span("serve.client_render", || -> Result<String, String> {
        Ok(match job {
            Job::Stat(p) => stat_body(p, &decode_stat(&res.payload, &stat_events(p))?),
            Job::Record(p) => {
                let mut profile = decode_profile_meta(&res.payload)?;
                profile.samples = samples;
                record_body(&profile, p, spec.period)
            }
            Job::Sweep | Job::Keyed | Job::Resubmit => {
                SweepOutcome::decode_summary(&res.payload, names(), runs)?.body()
            }
        })
    })?;
    let ms = |at: Instant| (at - t).as_secs_f64() * 1e3;
    Ok(Served {
        body,
        ms: ms(done),
        first_frame_ms: ms(first.unwrap_or(done)),
    })
}

/// A started daemon with its references, warmed by one job of each kind.
struct Daemon {
    handle: ServeHandle,
    refs: References,
}

fn set_up(dir: &Path, socket: &Path) -> Result<Daemon, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let sopts = ServeOptions {
        state_dir: Some(dir.join("state")),
        cache_dir: Some(dir.join("cache")),
        ..ServeOptions::default()
    };
    let handle = miniperf::serve::start(socket, &CommonOpts::default(), &sopts)
        .map_err(|e| format!("serve: {e}"))?;
    let refs = batch_references(dir)?;
    let mut session = connect(socket)?;
    for (kind, job) in KINDS {
        let got = submit(&mut session, job, "warm")?;
        expect_eq(kind, got.body.as_str(), refs.body(job))?;
    }
    session.shutdown().map_err(|e| e.to_string())?;
    Ok(Daemon { handle, refs })
}

/// One client connection and what it keeps between rounds.
struct Client {
    index: u64,
    session: Session,
    rng: Rng,
    /// Keys this client has journaled; the set-up journaled "warm".
    keys: Vec<String>,
}

impl Client {
    fn new(args: &Args, socket: &Path, index: u64) -> Result<Client, String> {
        Ok(Client {
            index,
            session: connect(socket)?,
            rng: Rng::new(args.seed.wrapping_mul(31).wrapping_add(index)),
            keys: vec!["warm".to_string()],
        })
    }

    /// Submit one job of kind `KINDS[i]` and check what it renders.
    fn job(&mut self, refs: &References, i: usize) -> Result<Served, String> {
        let job = KINDS[i].1;
        let key = match job {
            Job::Keyed => {
                self.keys
                    .push(format!("c{}-{}", self.index, self.keys.len()));
                self.keys.last().expect("just pushed").clone()
            }
            Job::Resubmit => self.keys[self.rng.below(self.keys.len())].clone(),
            _ => String::new(),
        };
        let served = trace::span(OP_SPAN, || submit(&mut self.session, job, &key))?;
        expect_eq(
            "served vs batch output",
            served.body.as_str(),
            refs.body(job),
        )?;
        Ok(served)
    }
}

pub fn run(args: &Args, scratch: &Scratch) -> Result<Outcome, String> {
    let mut out = Outcome {
        groups: vec![
            ("stat_ms", "stat"),
            ("record_ms", "record"),
            ("sweep_ms", "sweep"),
        ],
        ..Outcome::default()
    };
    let mut probe = HostProbe::default();
    // A relative socket path keeps it within the 108-byte limit however
    // deep the checkout is.
    let socket = |i: usize| -> PathBuf { scratch.path().join(format!("s{i}.sock")) };
    let mut daemon: Option<Daemon> = None;
    for i in 0..SETUPS {
        if let Some(d) = daemon.take() {
            d.handle.stop();
        }
        let dir = scratch.path().join(format!("setup{i}"));
        match out.timed_setup(&mut probe, || set_up(&dir, &socket(i))) {
            Ok(d) => daemon = Some(d),
            Err(e) => {
                out.tally.record("set-up", Err(e));
            }
        }
    }
    let daemon = daemon.ok_or_else(|| out.tally.setup_failed())?;
    let sock = socket(SETUPS - 1);
    let mut clients = (0..CLIENTS)
        .map(|i| Client::new(args, &sock, i))
        .collect::<Result<Vec<_>, _>>()?;
    let before = daemon.handle.stats();

    // One generator, closed loop: the jobs of each round alternate
    // between the connections, and the host probe runs after each job.
    let mut rng = Rng::new(args.seed);
    let mut first_frames = KindLatencies::default();
    let start = Instant::now();
    let mut round = 0;
    let mut submitted = 0;
    while start.elapsed().as_secs_f64() < args.seconds {
        let traced = traced_round(args.trace, round);
        for i in rng.permutation(KINDS.len()) {
            let kind = KINDS[i].0;
            let connection = submitted % clients.len();
            let client = &mut clients[connection];
            submitted += 1;
            let t = Instant::now();
            trace::set_enabled(traced);
            trace::new_op(kind);
            let result = client.job(&daemon.refs, i);
            trace::set_enabled(false);
            let busy = t.elapsed().as_secs_f64();
            let scale = probe.sample();
            if let (Ok(s), false) = (&result, traced) {
                first_frames.push(kind, s.first_frame_ms * scale);
            }
            out.record(kind, traced, result.map(|s| s.ms), scale);
            if !traced {
                out.add_busy(busy, scale);
            }
        }
        round += 1;
    }
    for c in clients {
        if let Err(e) = c.session.shutdown() {
            out.tally.record("shutdown", Err(e.to_string()));
        }
    }
    let after = daemon.handle.stats();
    daemon.handle.stop();

    out.extra_latencies = vec![
        ("submit_ms", out.latencies.clone()),
        ("first_frame_ms", first_frames),
    ];
    let delta = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let (decodes, hits) = (
        delta(before.decodes, after.decodes),
        delta(before.hits, after.hits),
    );
    let rejected = delta(before.rejected, after.rejected);
    let timed_out = delta(before.timed_out, after.timed_out);
    out.extra = BTreeMap::from([
        ("serve.decodes", decodes),
        ("serve.hits", hits),
        (
            "serve.hit_ratio",
            if decodes + hits > 0.0 {
                hits / (decodes + hits)
            } else {
                0.0
            },
        ),
        ("serve.rejected", rejected),
        ("serve.timed_out", timed_out),
    ]);
    out.notes.push(format!(
        "jobs_per_s             {:.3} 1/s over {} jobs on {CLIENTS} connections",
        out.ops as f64 / out.busy_s,
        out.ops
    ));
    // Refused and timed-out jobs already failed their clients' checks;
    // a nonzero count here without a failure would be a daemon bug.
    if rejected + timed_out > 0.0 && out.tally.failed == 0 {
        out.tally.record(
            "daemon",
            Err(format!("{rejected} rejected, {timed_out} timed out")),
        );
    }
    out.peak_rss_kb = sys::self_peak_rss_kb();
    Ok(out)
}
