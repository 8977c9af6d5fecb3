//! End-to-end and per-layer benchmark of the `miniperf` workflow.
//!
//! ```text
//! bash e2ebench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop over a seeded order of operations,
//! checks every output against a reference captured at set-up, and
//! prints a human report followed by one JSON line. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` re-runs the operations through the
//! layers' public functions with a span around each call, reports the
//! per-layer metrics, and writes the spans as a Chrome trace under
//! `e2ebench/out/`. See `e2ebench/WORKLOADS.md` for why each workload
//! exists and which layer metric should move which end-to-end metric.

mod layers;
mod metrics;
mod probe;
mod profile_sqlite;
mod roofline_stream;
mod serve_mixed;
mod stats;
mod sys;
mod trace;

use metrics::{Tally, END_TO_END, PER_LAYER};
use probe::HostProbe;
use stats::KindLatencies;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &["roofline-stream", "profile-sqlite", "serve-mixed"];

/// Where runs keep scratch files and traces, relative to the repository
/// root (the working directory `run.sh` sets).
const SCRATCH: &str = "e2ebench/scratch";
const OUT: &str = "e2ebench/out";

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 9;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `miniperf` binary built from this checkout.
    pub miniperf: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut miniperf = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?} (use 0 or 1)")),
                }
            }
            "--miniperf" => miniperf = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (use {} or all)",
            WORKLOADS.join(", ")
        ));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let miniperf = miniperf.ok_or("--miniperf <path to the miniperf binary> is required")?;
    if !miniperf.is_file() {
        return Err(format!("no miniperf binary at {}", miniperf.display()));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        miniperf,
    })
}

/// splitmix64: the seeded order of operations and generated data.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `0..n` in a seeded order (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// Run whole rounds until `--seconds` have passed. Every round runs each
/// of `kinds` once, in a seeded order, so the mix is the same at any seed
/// and only the order changes. `op` runs one operation of the kind at the
/// given index and returns its latency in ms; the host probe runs after
/// each operation.
pub fn run_rounds(
    args: &Args,
    rng: &mut Rng,
    probe: &mut HostProbe,
    kinds: &[&str],
    out: &mut Outcome,
    mut op: impl FnMut(usize) -> Result<f64, String>,
) {
    let start = Instant::now();
    let mut round = 0;
    while start.elapsed().as_secs_f64() < args.seconds {
        let traced = traced_round(args.trace, round);
        for k in rng.permutation(kinds.len()) {
            let t = Instant::now();
            trace::set_enabled(traced);
            trace::new_op(kinds[k]);
            let result = op(k);
            trace::set_enabled(false);
            let busy = t.elapsed().as_secs_f64();
            let scale = probe.sample();
            out.record(kinds[k], traced, result, scale);
            if !traced {
                out.add_busy(busy, scale);
            }
        }
        round += 1;
    }
}

/// Whether operation kind `kind` (`g` or `g:…`) belongs to group `group`.
fn in_group(kind: &str, group: &str) -> bool {
    kind.split(':').next() == Some(group)
}

/// Traced runs alternate: even rounds record spans, odd rounds do not,
/// so the difference is the tracing overhead under the same conditions.
pub fn traced_round(trace: bool, round: usize) -> bool {
    trace && round.is_multiple_of(2)
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation latencies in ms by kind, rescaled to the reference host
    /// (untraced operations only).
    pub latencies: KindLatencies,
    /// The same latencies as measured, before rescaling.
    pub wall: KindLatencies,
    /// Operation latencies of traced rounds, as measured.
    pub traced: KindLatencies,
    /// Named groups of kinds for the human report: `(metric, group)`; a
    /// kind `g` or `g:…` belongs to group `g`.
    pub groups: Vec<(&'static str, &'static str)>,
    /// Extra latency series for the report (the serve first frame).
    pub extra_latencies: Vec<(&'static str, KindLatencies)>,
    /// Untraced operations completed, and the rescaled time spent on them.
    pub ops: usize,
    pub busy_s: f64,
    /// Host probe rescaling factors applied.
    pub scales: Vec<f64>,
    /// Rescaled set-up times.
    pub setup_s: Vec<f64>,
    pub peak_rss_kb: u64,
    pub tally: Tally,
    /// Per-layer values only the workload can read.
    pub extra: BTreeMap<&'static str, f64>,
    /// Free-form lines for the human report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one operation and keep its latency (ms), rescaled by `scale`
    /// unless it ran traced.
    pub fn record(&mut self, kind: &str, traced: bool, result: Result<f64, String>, scale: f64) {
        match result {
            Err(e) => {
                self.tally.record(kind, Err(e));
            }
            Ok(ms) => {
                self.tally.record(kind, Ok(()));
                if traced {
                    self.traced.push(kind, ms);
                } else {
                    self.latencies.push(kind, ms * scale);
                    self.wall.push(kind, ms);
                    self.ops += 1;
                }
            }
        }
    }

    /// Add `seconds` of measured wall time, rescaled by `scale`.
    pub fn add_busy(&mut self, seconds: f64, scale: f64) {
        self.busy_s += seconds * scale;
        self.scales.push(scale);
    }

    /// Run one set-up and keep its rescaled time.
    pub fn timed_setup<T>(
        &mut self,
        probe: &mut HostProbe,
        set_up: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        let t = Instant::now();
        let got = set_up();
        let seconds = t.elapsed().as_secs_f64();
        self.setup_s.push(seconds * probe.sample());
        got
    }
}

/// A fresh scratch directory for one run; removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(workload: &str) -> std::io::Result<Scratch> {
        let dir = Path::new(SCRATCH).join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once the last run has left it.
        let _ = std::fs::remove_dir(SCRATCH);
    }
}

fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    let scratch = Scratch::new(name).map_err(|e| format!("cannot create scratch dir: {e}"))?;
    trace::take();
    match name {
        "roofline-stream" => roofline_stream::run(args, &scratch),
        "profile-sqlite" => profile_sqlite::run(args, &scratch),
        "serve-mixed" => serve_mixed::run(args, &scratch),
        other => Err(format!("unknown workload {other}")),
    }
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Values of the end-to-end metrics.
fn end_to_end(out: &Outcome) -> BTreeMap<&'static str, f64> {
    let mut v = BTreeMap::new();
    v.insert("op_ms", out.latencies.typical().unwrap_or(0.0));
    v.insert("tail_ms", out.latencies.tail().map_or(0.0, |t| t.value));
    v.insert("ops_per_s", out.ops as f64 / out.busy_s.max(1e-9));
    v.insert("setup_s", stats::median(&out.setup_s).unwrap_or(0.0));
    v.insert("peak_rss_mb", out.peak_rss_kb as f64 / 1024.0);
    v
}

fn report(name: &str, args: &Args, out: &Outcome, values: &BTreeMap<&'static str, f64>) {
    println!(
        "== {name} (seed {}, {} s, trace {})",
        args.seed, args.seconds, args.trace as u8
    );
    let lat = if args.trace {
        &out.traced
    } else {
        &out.latencies
    };
    for (kind, _) in &lat.kinds {
        let one = lat.filter(|k| k == kind);
        println!("  kind {}", metrics::describe_latency(kind, &one));
    }
    if !args.trace {
        for (metric, prefix) in &out.groups {
            let group = out.latencies.filter(|k| in_group(k, prefix));
            println!("  {}", metrics::describe_latency(metric, &group));
        }
        for (metric, series) in &out.extra_latencies {
            println!("  {}", metrics::describe_latency(metric, series));
        }
        println!(
            "  {}  (as measured, not rescaled)",
            metrics::describe_latency("wall_op_ms", &out.wall)
        );
        println!(
            "  host probe rescaling   median x{:.3}, range x{:.3}..x{:.3} over {} probes",
            stats::median(&out.scales).unwrap_or(0.0),
            out.scales.iter().copied().fold(f64::INFINITY, f64::min),
            out.scales.iter().copied().fold(0.0, f64::max),
            out.scales.len()
        );
    }
    println!(
        "  fail_ratio             {:.6} ({} of {} operations)",
        out.tally.fail_ratio(),
        out.tally.failed,
        out.tally.attempted
    );
    for e in &out.tally.errors {
        println!("  FAILED {e}");
    }
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    for m in catalog {
        println!(
            "  {:<28} {:>16.4} {:<6} ({} is better)",
            m.name, values[m.name], m.unit, m.better
        );
    }
    if !args.trace {
        println!(
            "  setup_s samples        {:?}",
            out.setup_s
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
        );
    }
    for n in &out.notes {
        println!("  {n}");
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn json_line(tally: &Tally, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            assert!(
                stats::valid_metric_name(name) && stats::valid_unit(unit),
                "metric {name:?} / unit {unit:?} breaks the naming rules"
            );
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_value(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}|all> --seed N --seconds S --trace 0|1 \
                 --miniperf PATH",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut tally = Tally::default();
    let mut all_metrics: Vec<(String, f64, &str)> = Vec::new();
    for name in &names {
        let mut out = match run_workload(name, &args) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("e2ebench: {name}: {e}");
                std::process::exit(1);
            }
        };
        let values = if args.trace {
            let rec = trace::take();
            let path = Path::new(OUT).join(format!("trace-{name}-seed{}.json", args.seed));
            if let Err(e) = std::fs::create_dir_all(OUT)
                .and_then(|()| std::fs::write(&path, trace::chrome_json(&rec)))
            {
                eprintln!("e2ebench: cannot write {}: {e}", path.display());
            }
            for (metric, group) in &out.groups {
                let spans: Vec<trace::Span> = rec
                    .spans
                    .iter()
                    .filter(|s| rec.labels.get(&s.op).is_some_and(|k| in_group(k, group)))
                    .cloned()
                    .collect();
                let shares: Vec<String> = trace::layer_shares(&spans, metrics::OP_SPAN)
                    .iter()
                    .map(|(layer, v)| format!("{layer} {:.2}%", 100.0 * v))
                    .collect();
                out.notes.push(format!(
                    "self-time shares of {metric} ({group} ops): {}",
                    shares.join(", ")
                ));
            }
            // Tracing overhead: traced rounds against untraced rounds of
            // the same run, both as measured.
            metrics::per_layer(
                &rec.spans,
                &rec.counters,
                &out.traced,
                &out.wall,
                &out.extra,
            )
        } else {
            end_to_end(&out)
        };
        report(name, &args, &out, &values);
        let catalog = if args.trace { PER_LAYER } else { END_TO_END };
        for m in catalog {
            let key = if names.len() > 1 {
                format!("{name}.{}", m.name)
            } else {
                m.name.to_string()
            };
            all_metrics.push((key, values[m.name], m.unit));
        }
        tally.merge(out.tally);
    }
    println!("{}", json_line(&tally, &all_metrics));
}
