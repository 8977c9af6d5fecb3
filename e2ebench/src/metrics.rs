//! The metric catalog and the arithmetic that turns a run's samples and
//! spans into metric values.

use crate::stats::{KindLatencies, Tail};
use crate::trace::{self, Span};
use std::collections::BTreeMap;

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[Metric] = &[
    m("op_ms", "ms", "lower"),
    m("tail_ms", "ms", "lower"),
    m("ops_per_s", "1/s", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer that a workload never calls reads 0. `share.<layer>` is the
/// layer's self time as a share of operation time; `bench` is the
/// benchmark's own glue inside an operation (staging guest data, spawning
/// and reading a child).
pub const PER_LAYER: &[Metric] = &[
    m("ir.compile_ms", "ms", "lower"),
    m("ir.passes_ms", "ms", "lower"),
    m("ir.insts", "count", "lower"),
    m("vm.decode_ms", "ms", "lower"),
    m("vm.decoded_ops", "count", "lower"),
    m("vm.exec_ms", "ms", "lower"),
    m("vm.mir_ops", "count", "lower"),
    m("vm.ns_per_mir_op", "ns", "lower"),
    m("sim.cycles", "count", "lower"),
    m("sim.instret", "count", "lower"),
    m("sim.cache_misses", "count", "lower"),
    m("roofline.characterize_ms", "ms", "lower"),
    m("roofline.plot_ms", "ms", "lower"),
    m("core.phases_ms", "ms", "lower"),
    m("core.render_ms", "ms", "lower"),
    m("perf_event.sampling_ms", "ms", "lower"),
    m("perf_event.samples", "count", "higher"),
    m("sweep.supervise_overhead_ms", "ms", "lower"),
    m("sweep.shard_overhead_ms", "ms", "lower"),
    m("sweep.retries", "count", "lower"),
    m("sweep.journal_append_us", "us", "lower"),
    m("sweep.journal_open_ms", "ms", "lower"),
    m("serve.decodes", "count", "lower"),
    m("serve.hits", "count", "higher"),
    m("serve.hit_ratio", "ratio", "higher"),
    m("serve.rejected", "count", "lower"),
    m("serve.timed_out", "count", "lower"),
    m("serve.client_render_ms", "ms", "lower"),
    m("share.bench", "%", "lower"),
    m("share.ir", "%", "lower"),
    m("share.vm", "%", "lower"),
    m("share.core", "%", "lower"),
    m("share.roofline", "%", "lower"),
    m("share.perf_event", "%", "lower"),
    m("share.sweep", "%", "lower"),
    m("share.serve", "%", "lower"),
    m("trace.ops", "count", "higher"),
    m("trace.op_ms", "ms", "lower"),
    m("trace.overhead_ms", "ms", "lower"),
    m("trace.overhead_pct", "%", "lower"),
];

/// Name of the root span around each measured operation.
pub const OP_SPAN: &str = "bench.op";

/// Tally of attempted operations and the ones that failed, were refused,
/// or gave wrong output.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one operation; `Err` marks it failed.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// The error a workload returns when no set-up succeeded.
    pub fn setup_failed(&self) -> String {
        format!("set-up failed: {}", self.errors.join("; "))
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// Fail unless `got == want`, naming what differed.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    got: T,
    want: T,
) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}

/// Exact counts an operation kind must repeat on every run of it: the
/// first operation of a kind sets them, every later one must match.
#[derive(Debug, Default)]
pub struct RepeatCheck {
    seen: BTreeMap<String, Vec<u64>>,
}

impl RepeatCheck {
    pub fn check(&mut self, kind: &str, counts: Vec<u64>) -> Result<(), String> {
        match self.seen.get(kind) {
            Some(first) if *first != counts => Err(format!(
                "{kind}: counts {counts:?} differ from the first run's {first:?}"
            )),
            Some(_) => Ok(()),
            None => {
                self.seen.insert(kind.to_string(), counts);
                Ok(())
            }
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metric values from a traced run's spans and counters.
/// `traced` and `untraced` are the operation latencies of the traced and
/// untraced rounds; `extra` carries values only the workload can read
/// (the daemon's own counters).
pub fn per_layer(
    spans: &[Span],
    counters: &BTreeMap<(u64, &'static str), u64>,
    traced: &KindLatencies,
    untraced: &KindLatencies,
    extra: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let ops: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == OP_SPAN && s.parent.is_none())
        .map(|s| s.op)
        .collect();
    let n_ops = ops.len() as f64;
    fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> {
        spans.iter().filter(move |s| s.name == name)
    }
    let spans_named = |name: &'static str| named(spans, name);
    let sum_ns = |name: &'static str| spans_named(name).map(Span::dur_ns).sum::<u64>();
    let n_named = |name: &'static str| spans_named(name).count() as f64;
    let mean_ms = |name: &'static str| ratio(ms(sum_ns(name)), n_named(name));
    let per_op_ms = |name: &'static str| ratio(ms(sum_ns(name)), n_ops);
    let counter = |name: &'static str| {
        counters
            .iter()
            .filter(|((_, c), _)| *c == name)
            .map(|(_, v)| *v)
            .sum::<u64>() as f64
    };
    let per_op = |name: &'static str| ratio(counter(name), n_ops);

    // Sampling cost: each recorded operation's `record` minus the plain
    // call on the same inputs that runs beside it.
    let record_ops: Vec<u64> = spans_named("perf_event.record").map(|s| s.op).collect();
    let exec_on_record_ops: u64 = spans_named("vm.exec")
        .filter(|s| record_ops.contains(&s.op))
        .map(Span::dur_ns)
        .sum();
    let sampling_ms = ratio(
        ms(sum_ns("perf_event.record")) - ms(exec_on_record_ops),
        record_ops.len() as f64,
    );
    let samples = ratio(counter("perf_event.samples"), record_ops.len() as f64);
    let supervise_overhead = ratio(
        ms(sum_ns("sweep.supervised")) - ms(sum_ns("sweep.direct")),
        n_named("sweep.supervised"),
    );
    let shard_overhead = if n_named("sweep.sharded") > 0.0 && n_named("sweep.supervised") > 0.0 {
        mean_ms("sweep.sharded") - mean_ms("sweep.supervised")
    } else {
        0.0
    };
    let traced_ms = traced.typical().unwrap_or(0.0);
    let untraced_ms = untraced.typical().unwrap_or(0.0);
    let overhead = if traced_ms > 0.0 && untraced_ms > 0.0 {
        traced_ms - untraced_ms
    } else {
        0.0
    };

    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    out.insert("ir.compile_ms", per_op_ms("ir.compile"));
    out.insert("ir.passes_ms", per_op_ms("ir.passes"));
    out.insert("ir.insts", per_op("ir.insts"));
    out.insert("vm.decode_ms", per_op_ms("vm.decode"));
    out.insert("vm.decoded_ops", per_op("vm.decoded_ops"));
    out.insert("vm.exec_ms", per_op_ms("vm.exec"));
    out.insert("vm.mir_ops", per_op("vm.mir_ops"));
    out.insert(
        "vm.ns_per_mir_op",
        ratio(sum_ns("vm.exec") as f64, counter("vm.mir_ops")),
    );
    out.insert("sim.cycles", per_op("sim.cycles"));
    out.insert("sim.instret", per_op("sim.instret"));
    out.insert("sim.cache_misses", per_op("sim.cache_misses"));
    out.insert(
        "roofline.characterize_ms",
        per_op_ms("roofline.characterize"),
    );
    out.insert("roofline.plot_ms", per_op_ms("roofline.plot"));
    out.insert("core.phases_ms", per_op_ms("core.phases"));
    out.insert("core.render_ms", per_op_ms("core.render"));
    out.insert("perf_event.sampling_ms", sampling_ms);
    out.insert("perf_event.samples", samples);
    out.insert("sweep.supervise_overhead_ms", supervise_overhead);
    out.insert("sweep.shard_overhead_ms", shard_overhead);
    out.insert("sweep.retries", per_op("sweep.retries"));
    out.insert(
        "sweep.journal_append_us",
        mean_ms("sweep.journal_append") * 1e3,
    );
    out.insert("sweep.journal_open_ms", mean_ms("sweep.journal_open"));
    out.insert("serve.client_render_ms", per_op_ms("serve.client_render"));
    for name in [
        "serve.decodes",
        "serve.hits",
        "serve.hit_ratio",
        "serve.rejected",
        "serve.timed_out",
    ] {
        out.insert(name, extra.get(name).copied().unwrap_or(0.0));
    }
    let shares = trace::layer_shares(spans, OP_SPAN);
    for (metric, layer) in PER_LAYER
        .iter()
        .filter_map(|m| m.name.strip_prefix("share.").map(|l| (m.name, l)))
    {
        out.insert(metric, 100.0 * shares.get(layer).copied().unwrap_or(0.0));
    }
    out.insert("trace.ops", n_ops);
    out.insert("trace.op_ms", traced_ms);
    out.insert("trace.overhead_ms", overhead);
    out.insert("trace.overhead_pct", 100.0 * ratio(overhead, untraced_ms));
    out
}

/// A latency metric as printed in the human report.
pub fn describe_latency(name: &str, lat: &KindLatencies) -> String {
    let typical = lat.typical().map_or("n/a".into(), |v| format!("{v:.3} ms"));
    let tail = match lat.tail() {
        Some(Tail {
            value,
            percentile,
            n,
        }) => format!("{value:.3} ms at p{percentile:.1} of n={n}"),
        None => "n/a".into(),
    };
    format!(
        "{name:<22} {typical:>14}  spread {:>5.1}%  tail {tail}",
        100.0 * lat.spread()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_metric_name, valid_unit};

    #[test]
    fn catalog_names_and_units_are_valid_and_unique() {
        let mut names = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(names.insert(m.name), "duplicate {}", m.name);
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"name\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + crate::WORKLOADS.len()
        );
    }

    #[test]
    fn a_failed_check_raises_fail_ratio() {
        let mut t = Tally::default();
        t.record("stat", expect_eq("ret", 7, 7));
        assert_eq!(t.fail_ratio(), 0.0);
        t.record("stat", expect_eq("ret", 7, 8));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.fail_ratio(), 0.5);
        assert!(t.errors[0].contains("got 7, want 8"));
        let mut other = Tally::default();
        other.record("sweep", Err("refused".into()));
        t.merge(other);
        assert_eq!((t.attempted, t.failed), (3, 2));
    }

    #[test]
    fn repeat_check_pins_the_first_counts() {
        let mut r = RepeatCheck::default();
        assert!(r.check("stat:x60", vec![1, 2]).is_ok());
        assert!(r.check("stat:x60", vec![1, 2]).is_ok());
        assert!(r.check("stat:c910", vec![5]).is_ok());
        assert!(r.check("stat:x60", vec![1, 3]).is_err());
    }

    fn sp(id: u64, parent: Option<u64>, op: u64, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            op,
            name,
            start_ns: a,
            end_ns: b,
            thread: 1,
        }
    }

    #[test]
    fn per_layer_arithmetic() {
        let ms = 1_000_000;
        let spans = vec![
            sp(1, None, 1, OP_SPAN, 0, 10 * ms),
            sp(2, Some(1), 1, "ir.compile", 0, 2 * ms),
            sp(3, Some(1), 1, "perf_event.record", 2 * ms, 10 * ms),
            sp(4, None, 1, "bench.baseline", 10 * ms, 16 * ms),
            sp(5, Some(4), 1, "vm.exec", 10 * ms, 16 * ms),
            sp(6, None, 2, OP_SPAN, 20 * ms, 24 * ms),
            sp(7, Some(6), 2, "perf_event.stat", 20 * ms, 24 * ms),
        ];
        let mut counters = BTreeMap::new();
        counters.insert((1, "vm.mir_ops"), 3_000_000);
        counters.insert((1, "perf_event.samples"), 40);
        let mut traced = KindLatencies::default();
        traced.push("a", 11.0);
        let mut untraced = KindLatencies::default();
        untraced.push("a", 10.0);
        let v = per_layer(&spans, &counters, &traced, &untraced, &BTreeMap::new());
        assert_eq!(v["ir.compile_ms"], 1.0, "2 ms over 2 ops");
        assert_eq!(v["vm.exec_ms"], 3.0);
        assert_eq!(v["vm.ns_per_mir_op"], 2.0);
        assert_eq!(
            v["perf_event.sampling_ms"], 2.0,
            "8 ms record - 6 ms plain call"
        );
        assert_eq!(v["perf_event.samples"], 40.0);
        assert!((v["share.perf_event"] - 100.0 * 12.0 / 14.0).abs() < 1e-9);
        assert!((v["share.ir"] - 100.0 * 2.0 / 14.0).abs() < 1e-9);
        assert_eq!(v["share.vm"], 0.0, "baseline trees are not inside ops");
        assert_eq!(v["trace.ops"], 2.0);
        assert_eq!(v["trace.overhead_ms"], 1.0);
        assert!((v["trace.overhead_pct"] - 10.0).abs() < 1e-9);
        assert_eq!(v["serve.hits"], 0.0);
        for m in PER_LAYER {
            assert!(v.contains_key(m.name), "{}", m.name);
        }
        assert_eq!(v.len(), PER_LAYER.len());
    }
}
