//! Shared measurement plumbing: sample statistics, spans, and the report
//! every workload fills in.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Median of `xs` (the mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail percentile and the number of samples strictly beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub beyond: usize,
}

/// The highest percentile of the ladder 50 < 75 < 90 < 95 < 99 < 99.9 that
/// still has at least ten samples beyond it (nearest-rank definition).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0].iter().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        let beyond = n - rank;
        (beyond >= 10).then(|| Tail {
            percentile: p,
            value: v[rank - 1],
            beyond,
        })
    })
}

/// The benchmark's one clock read.
pub fn now() -> Instant {
    // rtlint: allow(D003) -- the benchmark's clock: timings are its output, and no counter, golden or check reads them
    Instant::now()
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One named value with its unit and how it was obtained.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// Everything a run produced: counts of operations and failures, the
/// metrics for the result line, and the detail printed above it.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Metrics of the result line (end-to-end, or per-layer when traced).
    pub result: Vec<Metric>,
    /// Named workload metrics and exact counters, printed but not part of
    /// the result line.
    pub detail: Vec<Metric>,
}

impl Report {
    /// Counts one operation or output check; a failure is recorded with
    /// its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Counts `n` operations that all succeeded.
    pub fn ok_ops(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    pub fn result(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.result.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.detail.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// A timing reported as its median, with the tail percentile (when
    /// the sample set has one) as a note.
    pub fn detail_samples(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        if samples.is_empty() {
            self.detail(name, 0.0, unit, "no samples");
            return;
        }
        let note = match tail(samples) {
            Some(t) => format!(
                "median of n={}; p{} = {:.4} ({} beyond)",
                samples.len(),
                t.percentile,
                t.value,
                t.beyond
            ),
            None => format!("median of n={}", samples.len()),
        };
        self.detail(name, median(samples), unit, note);
    }

    /// Counts that must repeat exactly between two passes of the same
    /// seeded work; any drift is a benchmark bug and fails the run.
    pub fn check_repeat(&mut self, label: &str, first: &[(String, u64)], again: &[(String, u64)]) {
        for ((name, a), (_, b)) in first.iter().zip(again) {
            self.check(a == b, || {
                format!("{label}: counter `{name}` drifted {a} -> {b}")
            });
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Prints the detail table, then the JSON result line.
    pub fn print(&self) {
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        for m in self.detail.iter().chain(&self.result) {
            println!(
                "  {:<34} {:>16.6} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        println!(
            "  {:<34} {:>16.6} {:<6} {} failed of {} attempted",
            "failed_frac",
            self.failed_frac(),
            "ratio",
            self.failed,
            self.attempted
        );
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.result.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}

/// One recorded span: a named interval and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

/// An in-memory span recorder; times are seconds since `origin`.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub total: f64,
    pub self_time: f64,
    pub count: usize,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Trace) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: secs(self.origin),
            end: f64::NAN,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = secs(self.origin);
        out
    }

    /// Records an interval measured elsewhere (for example a request timed
    /// on a client thread) as a child of span `parent`; returns its id.
    pub fn record_child(
        &mut self,
        parent: usize,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let rel = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            start: rel(start),
            end: rel(end),
            parent: Some(parent),
        });
        self.spans.len() - 1
    }

    /// For each span, the length of the union of its children's intervals
    /// (children of a span may run concurrently, on different threads).
    fn covered(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        children
            .into_iter()
            .map(|mut iv| {
                iv.sort_by(|a, b| a.0.total_cmp(&b.0));
                let (mut sum, mut reach) = (0.0, f64::NEG_INFINITY);
                for (a, b) in iv {
                    let from = a.max(reach);
                    if b > from {
                        sum += b - from;
                    }
                    reach = reach.max(b);
                }
                sum
            })
            .collect()
    }

    /// Total, self time (duration minus the part of it child spans cover)
    /// and call count, per span name.
    pub fn layers(&self) -> BTreeMap<String, LayerTime> {
        let covered = self.covered();
        let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name.clone()).or_default();
            e.total += s.end - s.start;
            e.self_time += (s.end - s.start) - covered[i];
            e.count += 1;
        }
        out
    }

    /// Total time of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.layers().get(name).map_or(0.0, |l| l.total)
    }

    /// Root spans' combined duration and the part of it their children
    /// cover: the coverage of a traced job.
    pub fn coverage(&self) -> (f64, f64) {
        let covered = self.covered();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
            .fold((0.0, 0.0), |(root, cov), (i, s)| {
                (root + s.end - s.start, cov + covered[i])
            })
    }

    /// The spans as a JSON array (name, start, end, parent).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start\": {:?}, \"end\": {:?}, \"parent\": {parent}}}{}",
                s.name,
                s.start,
                s.end,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        let t = tail(&xs[..20]).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
        assert!(tail(&xs[..19]).is_none());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new(Instant::now());
        t.span("job", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let layers = t.layers();
        let job = layers["job"];
        assert!(job.self_time < job.total);
        let (root, covered) = t.coverage();
        assert!(covered > 0.0 && covered < root);
    }

    #[test]
    fn concurrent_children_are_covered_once() {
        let origin = Instant::now();
        let mut t = Trace::new(origin);
        let at = |ms: u64| origin + std::time::Duration::from_millis(ms);
        t.spans.push(Span {
            name: "job".into(),
            start: 0.0,
            end: 0.010,
            parent: None,
        });
        t.record_child(0, "a", at(0), at(8));
        t.record_child(0, "b", at(2), at(6));
        let job = t.layers()["job"];
        assert!((job.self_time - 0.002).abs() < 1e-9);
        let (root, covered) = t.coverage();
        assert!((root - 0.010).abs() < 1e-9 && (covered - 0.008).abs() < 1e-9);
    }
}
