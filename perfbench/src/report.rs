//! Metric names, units and the result line.
//!
//! The two registries below are the benchmark's whole output vocabulary:
//! an untraced run prints every [`END_TO_END`] metric, a traced run every
//! [`PER_LAYER`] metric, and `BENCHMARK.json` lists the same names (a test
//! keeps them in step).

use std::collections::BTreeMap;
use std::fmt::Write;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Name: letters, digits, `_`, `.` and `-`, starting with a letter or digit.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// What a user of each workload pays. "Alert call" is the call whose
/// return delivers the workload's result: an `ingest` (stream workloads;
/// on `hub_bursts` only the batch closing a gadget), an `Engine::run`
/// (one-shot workloads). Times are process CPU time (see
/// [`crate::EndToEnd`] for why not wall-clock time).
pub const END_TO_END: &[MetricSpec] = &[
    // Median CPU time of the run's set-ups: input generation, engine
    // build, subscribes.
    m("setup_s", "s"),
    // Input edges processed per CPU second of the timed calls.
    m("edges_per_cpu_s", "1/s"),
    // Median CPU time of an alert call.
    m("alert_cpu_p50_ms", "ms"),
    // Nearest-rank p90 of an alert call's CPU time (the maximum when fewer
    // than ten samples lie beyond the p90).
    m("alert_cpu_p90_ms", "ms"),
    // The process's peak resident set after the first pass.
    m("peak_rss_mb", "MB"),
];

/// Per-layer figures of the traced pass (one pass of the workload).
pub const PER_LAYER: &[MetricSpec] = &[
    // pce-graph::stream
    m("window.append_s", "s"),
    m("window.expired_edges", "count"),
    m("window.live_edges_max", "count"),
    // pce-graph::reach (shadow calls at the union window)
    m("reach.before_s", "s"),
    m("reach.roots", "count"),
    m("reach.closing_roots", "count"),
    m("reach.closing_ratio", "ratio"),
    // pce-core::delta
    m("delta.search_s", "s"),
    m("delta.edge_visits", "count"),
    m("delta.recursive_calls", "count"),
    m("delta.union_members", "count"),
    m("delta.roots_processed", "count"),
    m("delta.copy_events", "count"),
    m("delta.copies_per_steal", "ratio"),
    // pce-sched
    m("sched.steals", "count"),
    m("sched.busy_s", "s"),
    m("sched.busy_workers", "count"),
    m("sched.idle_frac", "ratio"),
    m("sched.overhead_s", "s"),
    m("sched.seq_burst_p50_ms", "ms"),
    // pce-core::streaming
    m("streaming.enumerate_s", "s"),
    m("streaming.fan_out_s", "s"),
    m("streaming.fan_out_checks", "count"),
    m("streaming.candidates", "count"),
    m("streaming.offered", "count"),
    m("streaming.accepted", "count"),
    m("streaming.accept_ratio", "ratio"),
    m("streaming.parallel_batches", "count"),
    m("streaming.report_s", "s"),
    // pce-store
    m("store.append_s", "s"),
    m("store.checkpoint_s", "s"),
    m("store.checkpoints", "count"),
    m("store.log_bytes", "bytes"),
    m("recover.s", "s"),
    m("recover.replayed_batches", "count"),
    m("recover.hydrated_batches", "count"),
    // pce-core::engine / par
    m("oneshot.enumerate_s", "s"),
    m("oneshot.edge_visits", "count"),
    m("oneshot.copy_events", "count"),
    m("oneshot.steal_events", "count"),
    m("oneshot.idle_frac", "ratio"),
    m("oneshot.coarse_s", "s"),
    // pce-workloads / set-up
    m("setup.generate_s", "s"),
    m("setup.subscribe_s", "s"),
    // The trace itself: traced minus untraced pass, and whether the layer
    // predicted to be heavy on this workload holds the most time.
    m("trace.overhead.setup_s", "s"),
    m("trace.overhead.edges_per_cpu_s", "1/s"),
    m("trace.overhead.alert_cpu_p50_ms", "ms"),
    m("trace.overhead.alert_cpu_p90_ms", "ms"),
    m("trace.predicted_share", "ratio"),
    m("trace.predicted_dominates", "bool"),
    m("trace.spans", "count"),
];

/// Whether `name` is a valid metric name.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Named metric values, accumulated by name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Empty.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to `name` (starting from 0).
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    /// Raises `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let slot = self.0.entry(name).or_insert(v);
        *slot = slot.max(v);
    }

    /// Sets `name` to `v`.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    /// The value of `name` (0 when never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `num / den`, or 0 when the denominator is 0.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.get(den);
        if d == 0.0 {
            0.0
        } else {
            self.get(num) / d
        }
    }
}

/// The last line of a run: `correct`, `attempted`, `failed` and every metric
/// of `specs` with its unit. A metric that is not a finite number is left
/// out and makes the run incorrect, so a broken figure never reads as data.
pub fn result_line(
    attempted: u64,
    failed: u64,
    specs: &[MetricSpec],
    values: &Values,
) -> (bool, String) {
    let mut body = String::new();
    let mut finite = true;
    for spec in specs {
        let v = values.get(spec.name);
        if !v.is_finite() {
            finite = false;
            continue;
        }
        if !body.is_empty() {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            spec.name, spec.unit
        );
    }
    let correct = finite && failed == 0 && attempted > 0;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
    (correct, line)
}
