//! Order statistics and name rules shared by every workload.

/// Median of `v` (mean of the two middle values for an even count).
/// `None` when `v` is empty.
pub fn median(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(v, n=4)` uses. `None` below two samples.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |j: usize| {
        // Position j*(n+1)/4 (1-based), clamped to the sample range.
        let m = (n + 1) as f64;
        let pos = j as f64 * m / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - lo as f64;
        s[lo - 1] + (s[lo] - s[lo - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median (0 when undefined).
pub fn iqr_share(v: &[f64]) -> f64 {
    match (quartiles(v), median(v)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m,
        _ => 0.0,
    }
}

/// A tail reading: the value at the highest percentile that still has
/// at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// Sample count the reading was taken over.
    pub n: usize,
}

/// Samples that must lie beyond a tail reading.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `v` with at least [`TAIL_BEYOND`] samples
/// beyond it; `None` below `TAIL_BEYOND + 1` samples, where no
/// percentile qualifies.
pub fn tail(v: &[f64]) -> Option<Tail> {
    let s = sorted(v);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let k = n - TAIL_BEYOND - 1;
    Some(Tail {
        value: s[k],
        percentile: 100.0 * (k + 1) as f64 / n as f64,
        n,
    })
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Latencies of a workload grouped by operation kind.
///
/// A workload mixes kinds whose costs differ by up to 10x (a sweep and a
/// roofline, a stat and a record). A median or tail taken over the
/// pooled samples would land in the gap between two kinds and jump with
/// the mix. So the typical latency is the mean of the per-kind medians,
/// and the tail the mean of the per-kind tails.
#[derive(Debug, Clone, Default)]
pub struct KindLatencies {
    /// `(kind, latencies)` in a fixed kind order.
    pub kinds: Vec<(String, Vec<f64>)>,
}

impl KindLatencies {
    pub fn push(&mut self, kind: &str, value: f64) {
        match self.kinds.iter_mut().find(|(k, _)| k == kind) {
            Some((_, v)) => v.push(value),
            None => self.kinds.push((kind.to_string(), vec![value])),
        }
    }

    /// Keep only the kinds `keep` accepts.
    pub fn filter(&self, keep: impl Fn(&str) -> bool) -> KindLatencies {
        KindLatencies {
            kinds: self
                .kinds
                .iter()
                .filter(|(k, _)| keep(k))
                .cloned()
                .collect(),
        }
    }

    /// Mean over kinds of each kind's median.
    pub fn typical(&self) -> Option<f64> {
        let medians: Vec<f64> = self.kinds.iter().filter_map(|(_, v)| median(v)).collect();
        (!medians.is_empty()).then(|| medians.iter().sum::<f64>() / medians.len() as f64)
    }

    /// Mean over kinds of each kind's interquartile share.
    pub fn spread(&self) -> f64 {
        if self.kinds.is_empty() {
            return 0.0;
        }
        self.kinds.iter().map(|(_, v)| iqr_share(v)).sum::<f64>() / self.kinds.len() as f64
    }

    /// Mean over kinds of each kind's [`tail`]; the percentile reported
    /// is the lowest of theirs and `n` the smallest kind's count. A kind
    /// with too few samples for a tail (a run cut short, a very slow host)
    /// contributes its maximum, so the reading is never 0.
    pub fn tail(&self) -> Option<Tail> {
        let tails: Vec<Tail> = self
            .kinds
            .iter()
            .map(|(_, v)| {
                tail(v).unwrap_or(Tail {
                    value: v.iter().copied().fold(0.0, f64::max),
                    percentile: 100.0,
                    n: v.len(),
                })
            })
            .collect();
        let first = tails.first()?;
        Some(Tail {
            value: tails.iter().map(|t| t.value).sum::<f64>() / tails.len() as f64,
            percentile: tails
                .iter()
                .map(|t| t.percentile)
                .fold(first.percentile, f64::min),
            n: tails.iter().map(|t| t.n).min().unwrap_or(first.n),
        })
    }
}

/// Metric names: a letter or digit first, then at most 63 more letters,
/// digits, `_`, `.` or `-`.
pub fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None, "no percentile has ten beyond");
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(t.n, 11);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-9);
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.value, t.percentile, t.n), (90.0, 90.0, 100));
        let beyond = v.iter().filter(|x| **x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn kind_latencies_do_not_fall_between_kinds() {
        let mut k = KindLatencies::default();
        for i in 0..20 {
            k.push("fast", 10.0 + (i % 2) as f64);
            k.push("slow", 100.0 + 10.0 * (i % 2) as f64);
        }
        assert!((k.typical().unwrap() - (10.5 + 105.0) / 2.0).abs() < 1e-9);
        // Ten of each kind's twenty samples lie above its lower value, so
        // each tail is at p50: 10 and 100.
        let t = k.tail().unwrap();
        assert_eq!((t.value, t.percentile, t.n), (55.0, 50.0, 20));
        let only_fast = k.filter(|name| name == "fast");
        assert_eq!(only_fast.typical(), Some(10.5));
        k.push("rare", 4.0);
        let t = k.tail().unwrap();
        assert_eq!(
            (t.value, t.percentile, t.n),
            (38.0, 50.0, 1),
            "a kind with one sample contributes its maximum"
        );
    }

    #[test]
    fn metric_and_unit_syntax() {
        for ok in [
            "op_ms",
            "perf_event.sampling_ms",
            "share.ir",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "%", "count", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds-per-op-xy", "ms!"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
