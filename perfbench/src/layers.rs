//! The metric tables of the result line, the golden outputs, and the
//! per-layer accumulator each workload fills.

use crate::common::{Report, Trace};
use std::collections::BTreeMap;

/// End-to-end metrics, emitted by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("job_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, emitted by every workload's traced run. A layer that
/// does not run on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("parse.s", "s"),
    ("parse.rows_per_s", "1/s"),
    ("encode.s", "s"),
    ("encode.key_bytes_hashed", "count"),
    ("encode.peak_resident_cells", "count"),
    ("shard_plan.s", "s"),
    ("shard_plan.shards", "count"),
    ("graph_build.s", "s"),
    ("graph_build.edges", "count"),
    ("goal_test.calls", "count"),
    ("goal_test.us_per_call", "us"),
    ("goal_test.us_per_call_serial", "us"),
    ("goal_test.us_per_call_auto", "us"),
    ("goal_test.est_s", "s"),
    ("heuristic_key.calls", "count"),
    ("heuristic_key.us_per_call", "us"),
    ("heuristic_key.est_s", "s"),
    ("heuristic_enum.nodes", "count"),
    ("heuristic_enum.us_per_miss", "us"),
    ("heuristic_enum.est_s", "s"),
    ("heuristic.cache_hits", "count"),
    ("heuristic.cache_hit_ratio", "ratio"),
    ("search.s", "s"),
    ("search.states_expanded", "count"),
    ("search.states_generated", "count"),
    ("search.expansions_per_s", "1/s"),
    ("search.unestimated_s", "s"),
    ("materialize.s", "s"),
    ("materialize.cells_changed", "count"),
    ("csv_write.s", "s"),
    ("csv_write.bytes", "B"),
    ("apply.ms_per_batch", "ms"),
    ("apply.edges_added", "count"),
    ("apply.edges_removed", "count"),
    ("sweep_cache.hit_ratio", "ratio"),
    ("snapshot.ms", "ms"),
    ("snapshot.bytes", "B"),
    ("codec.us_per_frame", "us"),
    ("codec.bytes_per_frame", "B"),
    ("wal.append_us", "us"),
    ("wal.records", "count"),
    ("wal.bytes", "B"),
    ("wal.rotate_ms", "ms"),
    ("wire.requests", "count"),
    ("wire.wait_ms_per_request", "ms"),
    ("trace.job_s", "s"),
    ("trace.untraced_job_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.unattributed_s", "s"),
];

/// Values of the per-layer metrics gathered by a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    fn key(name: &str) -> &'static str {
        PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a declared per-layer metric"))
            .0
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(Self::key(name), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.values.entry(Self::key(name)).or_default() += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(Self::key(name)).copied().unwrap_or(0.0)
    }

    /// Coverage of a traced job by its layer spans, and the tracing
    /// overhead against the same job run untraced.
    pub fn trace(&mut self, trace: &Trace, untraced_s: f64) {
        let (root, covered) = trace.coverage();
        self.set("trace.job_s", root);
        self.set("trace.untraced_job_s", untraced_s);
        self.set("trace.overhead_s", root - untraced_s);
        self.set(
            "trace.coverage",
            if root > 0.0 { covered / root } else { 0.0 },
        );
        self.set("trace.unattributed_s", root - covered);
    }

    /// Puts every declared per-layer metric on the result line; the
    /// in-search products are marked as estimates.
    pub fn emit(&self, report: &mut Report) {
        for (name, unit) in PER_LAYER {
            let note = if name.ends_with(".est_s") || name == "search.unestimated_s" {
                "estimate: sampled per-call cost x exact count"
            } else if name.starts_with("goal_test.us")
                || name.starts_with("heuristic_key.us")
                || name.starts_with("heuristic_enum.us")
            {
                "sampled states, outside the search"
            } else if self.values.contains_key(name) {
                "measured"
            } else {
                "layer idle on this workload"
            };
            report.result(name, self.get(name), unit, note);
        }
    }
}

/// Golden outputs recorded from the benchmark's defining commit.
const GOLDEN: &str = include_str!("../golden.txt");

/// The golden value recorded under `key`, if any. `corrupt` simulates a
/// damaged golden file (the harness self-test uses it).
pub fn golden(key: &str, corrupt: bool) -> Option<String> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
        .map(|v| {
            if corrupt {
                format!("{v}~")
            } else {
                v.to_string()
            }
        })
}

/// Compares `actual` with the golden under `key`; prints the line to
/// record when `record` is set or the key has no golden.
pub fn check_golden(report: &mut Report, key: &str, actual: &str, record: bool, corrupt: bool) {
    if record {
        println!("GOLDEN {key} {actual}");
        return;
    }
    match golden(key, corrupt) {
        Some(expected) => report.check(expected == actual, || {
            format!("golden mismatch for `{key}`:\n  expected {expected}\n  actual   {actual}")
        }),
        None => println!("note: no golden recorded for `{key}`; invariant checks only"),
    }
}
