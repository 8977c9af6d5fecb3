//! In-memory span recorder for traced runs.
//!
//! A span covers one call the benchmark makes into a layer of the stack.
//! Spans carry a name (`layer.what`), start and end times, the span that
//! encloses them on the same thread, and the id of the operation they
//! belong to. Counters attach exact counts (instructions, samples,
//! cycles) to an operation. Nothing is written until the run ends; then
//! [`chrome_json`] renders the spans as Chrome trace events.
//!
//! Recording is off unless [`set_enabled`] turned it on for the calling
//! thread, so the traced and untraced rounds of one run execute the same
//! code.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Everything a traced run recorded.
#[derive(Debug, Default)]
pub struct Recording {
    pub spans: Vec<Span>,
    /// `(op, counter name) -> sum`.
    pub counters: BTreeMap<(u64, &'static str), u64>,
    /// Operation kind by operation id.
    pub labels: BTreeMap<u64, String>,
}

struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    next_thread: AtomicU64,
    next_op: AtomicU64,
    rec: Mutex<Recording>,
}

fn tracer() -> &'static Tracer {
    static T: OnceLock<Tracer> = OnceLock::new();
    T.get_or_init(|| Tracer {
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        next_thread: AtomicU64::new(1),
        next_op: AtomicU64::new(1),
        rec: Mutex::new(Recording::default()),
    })
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u64> = const { Cell::new(0) };
    static THREAD: Cell<u64> = const { Cell::new(0) };
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}

/// Turn recording on or off for the calling thread (concurrent clients
/// alternate traced and untraced rounds independently).
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Start a new operation of kind `kind` on this thread: later spans and
/// counters on this thread belong to it. Returns its id.
pub fn new_op(kind: &str) -> u64 {
    let t = tracer();
    let op = t.next_op.fetch_add(1, Ordering::Relaxed);
    OP.with(|c| c.set(op));
    if enabled() {
        let mut rec = t.rec.lock().expect("trace recorder poisoned");
        rec.labels.insert(op, kind.to_string());
    }
    op
}

fn now_ns() -> u64 {
    tracer().epoch.elapsed().as_nanos() as u64
}

fn thread_id() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(tracer().next_thread.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Run `f` inside a span named `name` (a no-op wrapper while recording
/// is off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let t = tracer();
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    let span = Span {
        id,
        parent,
        op: OP.with(Cell::get),
        name,
        start_ns,
        end_ns,
        thread: thread_id(),
    };
    t.rec
        .lock()
        .expect("trace recorder poisoned")
        .spans
        .push(span);
    out
}

/// Add `n` to counter `name` of the current operation (ignored while
/// recording is off).
pub fn count(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    let op = OP.with(Cell::get);
    *tracer()
        .rec
        .lock()
        .expect("trace recorder poisoned")
        .counters
        .entry((op, name))
        .or_default() += n;
}

/// Everything recorded so far; the recorder starts empty again.
pub fn take() -> Recording {
    std::mem::take(&mut *tracer().rec.lock().expect("trace recorder poisoned"))
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            // Union of the children's intervals, clipped to the parent.
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// The root span (no parent) above each span.
pub fn roots(spans: &[Span]) -> BTreeMap<u64, u64> {
    let parent: BTreeMap<u64, Option<u64>> = spans.iter().map(|s| (s.id, s.parent)).collect();
    spans
        .iter()
        .map(|s| {
            let mut at = s.id;
            while let Some(Some(p)) = parent.get(&at) {
                at = *p;
            }
            (s.id, at)
        })
        .collect()
}

/// Self time per layer over the trees rooted at spans named `root`, as
/// a share of those roots' total duration. The root's own self time is
/// reported under its own layer.
pub fn layer_shares(spans: &[Span], root: &str) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let roots = roots(spans);
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let total: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root)
        .map(Span::dur_ns)
        .sum();
    let mut out = BTreeMap::new();
    if total == 0 {
        return out;
    }
    for s in spans {
        if by_id[&roots[&s.id]].name == root {
            *out.entry(s.layer()).or_insert(0.0) += selfs[&s.id] as f64 / total as f64;
        }
    }
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, timestamps in microseconds.
pub fn chrome_json(rec: &Recording) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in rec.spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"id\":{},\"parent\":{},\"op\":{},\"op_kind\":{}}}}}",
            json_str(s.name),
            json_str(s.layer()),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.thread,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.op,
            json_str(rec.labels.get(&s.op).map_or("", String::as_str)),
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns: start,
            end_ns: end,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = vec![
            sp(1, None, "op", 0, 100),
            sp(2, Some(1), "ir.compile", 10, 30),
            sp(3, Some(1), "vm.decode", 30, 50),
            sp(4, Some(3), "vm.inner", 35, 45),
            // Overlapping children are counted once.
            sp(5, Some(1), "core.render", 90, 100),
            sp(6, Some(1), "core.render", 95, 100),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 20 - 20 - 10);
        assert_eq!(st[&3], 20 - 10);
        assert_eq!(st[&4], 10);
        assert_eq!(roots(&spans)[&4], 1);
        let shares = layer_shares(&spans, "op");
        assert!((shares["op"] - 0.5).abs() < 1e-12);
        assert!((shares["ir"] - 0.2).abs() < 1e-12);
        assert!((shares["vm"] - 0.2).abs() < 1e-12);
        assert!((shares["core"] - 0.15).abs() < 1e-12);
        // Trees under other roots do not count.
        let mut more = spans.clone();
        more.push(sp(7, None, "baseline", 200, 300));
        more.push(sp(8, Some(7), "vm.exec", 200, 300));
        assert_eq!(layer_shares(&more, "op"), shares);
    }

    #[test]
    fn spans_nest_per_thread_and_stay_off_when_disabled() {
        // One test drives the global recorder so tests cannot race on it.
        set_enabled(false);
        assert_eq!(span("ir.compile", || 7), 7);
        count("ir.insts", 3);
        assert!(take().spans.is_empty());

        set_enabled(true);
        let op_id = new_op("stat:x60");
        span("op", || {
            span("ir.compile", || count("ir.insts", 5));
            span("vm.decode", || span("vm.inner", || ()));
        });
        set_enabled(false);
        let rec = take();
        let spans = &rec.spans;
        assert_eq!(spans.len(), 4);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let (op, ir, dec, inner) = (
            by_name("op"),
            by_name("ir.compile"),
            by_name("vm.decode"),
            by_name("vm.inner"),
        );
        assert_eq!(op.parent, None);
        assert_eq!(ir.parent, Some(op.id));
        assert_eq!(dec.parent, Some(op.id));
        assert_eq!(inner.parent, Some(dec.id));
        assert!(spans
            .iter()
            .all(|s| s.op == op_id && s.start_ns <= s.end_ns));
        assert!(op.start_ns <= ir.start_ns && dec.end_ns <= op.end_ns);
        assert_eq!(rec.counters[&(op_id, "ir.insts")], 5);
        let json = chrome_json(&rec);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.contains("\"op_kind\":\"stat:x60\""));
    }
}
