//! The repository benchmark.
//!
//! Each workload is generated from a seed, driven through the system's
//! public entry points only (`MultiStreamingEngine`/
//! `DurableMultiStreamingEngine::{subscribe, ingest, checkpoint_now}`,
//! `pce_store::recover`, `Engine::run`), and checked for correct output.
//!
//! A run repeats *passes* of fixed work until the requested seconds are
//! spent. A pass sets the workload up from scratch (so set-up is measured
//! several times) and then drives it as a closed loop with one client: the
//! next call goes out only when the previous one returned.
//!
//! The untraced run reports the [`report::END_TO_END`] metrics. The traced
//! run makes one untraced and one traced pass and reports the
//! [`report::PER_LAYER`] metrics of the traced one. Per-layer time comes
//! from spans around the benchmark's own calls and from *shadow* calls:
//! after a timed `ingest` returns, and outside its span, the traced pass
//! calls the layer's public function again on the same batch, roots and
//! union window, so no shadow work lands in an end-to-end figure.

pub mod check;
pub mod reference;
pub mod report;
pub mod rng;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod workloads;

use check::Checker;
use report::Values;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Worker threads of every engine the benchmark builds.
pub const THREADS: usize = 2;

/// Set-ups a run makes at least, so `setup_s` is always a median.
pub const MIN_SETUPS: usize = 3;

/// Cheap set-ups are repeated until they add up to this many seconds (or
/// [`MAX_SETUPS`]), so a sub-millisecond `setup_s` is a steady median.
pub const SETUP_BUDGET_SECS: f64 = 0.25;

/// Upper limit of set-ups per run.
pub const MAX_SETUPS: usize = 200;

/// State shared by a run's passes.
#[derive(Debug)]
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// Spans of the traced pass.
    pub tracer: Tracer,
    /// Attempted and failed operations.
    pub check: Checker,
    /// Whether the current pass makes the shadow calls (the traced pass).
    pub shadow: bool,
    /// Per-layer values of the traced pass.
    pub layers: Values,
    /// End-to-end samples of the current phase.
    pub e2e: EndToEnd,
    /// Scratch directory for stores, removed when the run ends.
    pub work_dir: PathBuf,
    next_dir: u32,
}

impl Ctx {
    /// A context writing its stores under `work_dir`.
    pub fn new(seed: u64, work_dir: PathBuf) -> Self {
        Self {
            seed,
            tracer: Tracer::new(false),
            check: Checker::new(),
            shadow: false,
            layers: Values::new(),
            e2e: EndToEnd::default(),
            work_dir,
            next_dir: 0,
        }
    }

    /// A fresh, empty directory under the work directory.
    pub fn fresh_dir(&mut self, what: &str) -> std::io::Result<WorkDir> {
        self.next_dir += 1;
        let path = self.work_dir.join(format!("{what}-{}", self.next_dir));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    /// Times `f` as one set-up and records it.
    pub fn timed_setup<T>(&mut self, f: impl FnOnce(&mut Ctx) -> T) -> T {
        let span = self.tracer.begin("setup");
        let t = Stopwatch::start();
        let out = f(self);
        self.e2e.setups.push(t.stop());
        self.tracer.end(span);
        out
    }

    /// Times `f` as a set-up step `span` and adds its time to `layer`.
    pub fn setup_step<T>(
        &mut self,
        span: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Ctx) -> T,
    ) -> T {
        let id = self.tracer.begin(span);
        let t = Instant::now();
        let out = f(self);
        let secs = t.elapsed().as_secs_f64();
        self.tracer.end(id);
        if self.shadow {
            self.layers.add(layer, secs);
        }
        out
    }
}

/// A directory removed (with its contents) on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Wall-clock and process CPU seconds of one timed call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Wall-clock seconds.
    pub wall: f64,
    /// CPU seconds of the whole process (every thread, user and system).
    pub cpu: f64,
}

/// Times a call on the wall clock and on the process's CPU clock.
#[derive(Debug)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Self {
        Self {
            cpu: process_cpu_secs(),
            wall: Instant::now(),
        }
    }

    /// Reads both clocks.
    pub fn stop(&self) -> Cost {
        let wall = self.wall.elapsed().as_secs_f64();
        Cost {
            wall,
            cpu: process_cpu_secs() - self.cpu,
        }
    }
}

/// End-to-end samples of a phase (one or more passes).
///
/// The gated figures are CPU time: on a shared virtual machine the wall
/// clock also counts time the host gives to other guests (steal). In one
/// probe of eight identical `fraud_temporal` passes on a 2-vCPU VM, wall
/// time ranged 5.5–14.0 s with the host's steal while process CPU time
/// stayed within 10.3–11.9 s. Wall-clock figures are printed beside them.
#[derive(Debug, Default, Clone)]
pub struct EndToEnd {
    /// Each set-up.
    pub setups: Vec<Cost>,
    /// Each alert call.
    pub alerts: Vec<Cost>,
    /// Input edges processed by the timed calls.
    pub edges: u64,
    /// Sum over the timed calls (alert calls and the rest).
    pub busy: Cost,
}

impl EndToEnd {
    /// Records one timed alert call.
    pub fn alert(&mut self, cost: Cost, edges: usize) {
        self.alerts.push(cost);
        self.call(cost, edges);
    }

    /// Records one timed call that is not an alert call (a lead-in batch or
    /// a checkpoint): it counts toward throughput only.
    pub fn call(&mut self, cost: Cost, edges: usize) {
        self.edges += edges as u64;
        self.busy.wall += cost.wall;
        self.busy.cpu += cost.cpu;
    }

    /// Wall-clock seconds of each alert call.
    pub fn alert_walls(&self) -> Vec<f64> {
        self.alerts.iter().map(|c| c.wall).collect()
    }

    /// The end-to-end metrics (without `peak_rss_mb`).
    pub fn values(&self) -> Values {
        let setup: Vec<f64> = self.setups.iter().map(|c| c.cpu).collect();
        let alert: Vec<f64> = self.alerts.iter().map(|c| c.cpu).collect();
        let mut v = Values::new();
        v.set("setup_s", stats::median(&setup).unwrap_or(f64::NAN));
        v.set("edges_per_cpu_s", self.edges as f64 / self.busy.cpu);
        v.set(
            "alert_cpu_p50_ms",
            stats::median(&alert).map_or(f64::NAN, |s| s * 1e3),
        );
        v.set(
            "alert_cpu_p90_ms",
            stats::tail_at(&alert, 0.9).map_or(f64::NAN, |s| s * 1e3),
        );
        v
    }

    /// The wall-clock figures, for people: throughput, median and tail.
    pub fn wall_lines(&self) -> Vec<String> {
        let walls = self.alert_walls();
        let mut lines = vec![format!(
            "wall clock: {:.1} edges/s over {} alert calls, p50 {:.4} ms",
            self.edges as f64 / self.busy.wall,
            walls.len(),
            stats::median(&walls).unwrap_or(f64::NAN) * 1e3
        )];
        if let Some(t) = stats::tail(&walls) {
            lines.push(format!(
                "wall clock: p{} {:.4} ms of {} samples ({} beyond it)",
                t.p * 100.0,
                t.value * 1e3,
                t.n,
                stats::beyond(t.n, t.p)
            ));
        }
        lines
    }
}

/// One benchmark workload.
pub trait Workload {
    /// One pass: set up from scratch (through [`Ctx::timed_setup`]), then
    /// drive the fixed work, recording samples in `ctx.e2e` and outcomes in
    /// `ctx.check`; with `ctx.shadow` set, also the per-layer values.
    fn pass(&mut self, ctx: &mut Ctx);

    /// One extra set-up, timed and then discarded.
    fn setup_only(&mut self, ctx: &mut Ctx);

    /// Untimed checks after the measured passes (reference totals, cross
    /// checks between algorithms).
    fn verify(&mut self, ctx: &mut Ctx);

    /// Untimed extra per-layer measurements after the traced pass.
    fn trace_extra(&mut self, _ctx: &mut Ctx) {}

    /// Layers whose time is predicted to dominate on this workload.
    fn predicted_layers(&self) -> &'static [&'static str];

    /// Wall-clock figures under their user-facing names, printed for people
    /// (not part of the result line).
    fn summary(&self, _ctx: &Ctx) -> Vec<String> {
        Vec::new()
    }
}

/// `struct rusage` of this process, as 18 longs: on 64-bit Linux, user
/// and system time (two timevals each), then `ru_maxrss` (KiB) and the rest.
fn rusage() -> Option<[i64; 18]> {
    #[repr(C)]
    struct Rusage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage([0; 18]);
    // SAFETY: `usage` is a writable buffer of the size and layout of
    // `struct rusage`, and RUSAGE_SELF (0) is always a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    (rc == 0).then_some(usage.0)
}

/// CPU seconds this process has used, user plus system, over all threads.
pub fn process_cpu_secs() -> f64 {
    rusage().map_or(f64::NAN, |u| {
        (u[0] + u[2]) as f64 + (u[1] + u[3]) as f64 * 1e-6
    })
}

/// Peak resident set of this process in MB.
pub fn peak_rss_mb() -> f64 {
    rusage().map_or(f64::NAN, |u| u[4] as f64 / 1024.0)
}

/// Outcome of a run.
#[derive(Debug)]
pub struct RunOutput {
    /// Human-readable lines.
    pub lines: Vec<String>,
    /// The result line.
    pub result: String,
}

/// Runs `w` untraced for `seconds`: passes until the time is spent, extra
/// set-ups up to [`MIN_SETUPS`], then the checks.
pub fn run_untraced(w: &mut dyn Workload, ctx: &mut Ctx, seconds: f64) -> RunOutput {
    let start = Instant::now();
    let mut passes = 0u32;
    // The high-water mark after the first pass: later passes reuse memory
    // the allocator kept, so a run's peak would depend on its pass count.
    let mut rss = f64::NAN;
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        ctx.tracer.set_run(passes);
        w.pass(ctx);
        if passes == 0 {
            rss = peak_rss_mb();
        }
        passes += 1;
    }
    loop {
        let n = ctx.e2e.setups.len();
        let spent: f64 = ctx.e2e.setups.iter().map(|c| c.wall).sum();
        if n >= MAX_SETUPS || (n >= MIN_SETUPS && spent >= SETUP_BUDGET_SECS) {
            break;
        }
        w.setup_only(ctx);
    }
    let mut values = ctx.e2e.values();
    values.set("peak_rss_mb", rss);
    w.verify(ctx);
    let mut lines = vec![format!(
        "passes {passes}, alert calls {}, set-ups {}",
        ctx.e2e.alerts.len(),
        ctx.e2e.setups.len()
    )];
    lines.extend(ctx.e2e.wall_lines());
    lines.extend(w.summary(ctx));
    finish(ctx, lines, report::END_TO_END, &values)
}

/// Runs one untraced and one traced pass of `w` and reports the per-layer
/// metrics of the traced one, the tracing overhead, and whether the
/// predicted layers dominate. Spans are written to `spans_path`.
pub fn run_traced(w: &mut dyn Workload, ctx: &mut Ctx, spans_path: &Path) -> RunOutput {
    ctx.tracer.set_run(0);
    w.pass(ctx);
    let plain = std::mem::take(&mut ctx.e2e).values();

    ctx.tracer.set_enabled(true);
    ctx.tracer.set_run(1);
    ctx.shadow = true;
    w.pass(ctx);
    let traced = std::mem::take(&mut ctx.e2e).values();
    w.trace_extra(ctx);
    ctx.tracer.set_enabled(false);
    w.verify(ctx);

    let layers = &mut ctx.layers;
    for (name, e2e) in [
        ("trace.overhead.setup_s", "setup_s"),
        ("trace.overhead.edges_per_cpu_s", "edges_per_cpu_s"),
        ("trace.overhead.alert_cpu_p50_ms", "alert_cpu_p50_ms"),
        ("trace.overhead.alert_cpu_p90_ms", "alert_cpu_p90_ms"),
    ] {
        layers.set(name, traced.get(e2e) - plain.get(e2e));
    }
    derive_ratios(layers);
    let mut lines = Vec::new();
    let (share, dominates, top) = predicted(layers, w.predicted_layers());
    layers.set("trace.predicted_share", share);
    layers.set("trace.predicted_dominates", f64::from(u8::from(dominates)));
    layers.set("trace.spans", ctx.tracer.spans().len() as f64);
    lines.push(format!(
        "predicted heavy layer(s) {:?}: {:.1}% of layer time, {} (largest: {top})",
        w.predicted_layers(),
        share * 100.0,
        if dominates { "confirmed" } else { "refuted" }
    ));
    for (name, secs) in ctx.tracer.self_times(1) {
        lines.push(format!("self time {name}: {secs:.6} s"));
    }
    if let Err(e) = ctx.tracer.write_jsonl(spans_path) {
        lines.push(format!("could not write spans: {e}"));
    }
    let values = ctx.layers.clone();
    finish(ctx, lines, report::PER_LAYER, &values)
}

fn finish(
    ctx: &Ctx,
    mut lines: Vec<String>,
    specs: &[report::MetricSpec],
    values: &Values,
) -> RunOutput {
    for spec in specs {
        lines.push(format!(
            "{:<32} {:>16} {}",
            spec.name,
            values.get(spec.name),
            spec.unit
        ));
    }
    let attempted = ctx.check.attempted();
    let failed = ctx.check.failed();
    lines.push(format!(
        "failed_frac {} ({failed} of {attempted} operations and checks)",
        if attempted == 0 {
            f64::NAN
        } else {
            failed as f64 / attempted as f64
        }
    ));
    for note in ctx.check.notes() {
        lines.push(format!("FAILED: {note}"));
    }
    let (_, result) = report::result_line(attempted, failed, specs, values);
    RunOutput { lines, result }
}

/// Ratios whose numerator and denominator are reported beside them.
fn derive_ratios(v: &mut Values) {
    let closing = v.ratio("reach.closing_roots", "reach.roots");
    v.set("reach.closing_ratio", closing);
    let copies = v.ratio("delta.copy_events", "sched.steals");
    v.set("delta.copies_per_steal", copies);
    let accept = v.ratio("streaming.accepted", "streaming.offered");
    v.set("streaming.accept_ratio", accept);
    // The engine's worker time beyond the single-thread shadow work of the
    // same roots: task split, stealing, inline fan-out, contention.
    let overhead = v.get("sched.busy_s") - v.get("reach.before_s") - v.get("delta.search_s");
    v.set("sched.overhead_s", overhead.max(0.0));
}

/// Time per layer, for the dominance check. Shadow and engine-reported
/// figures are both single-call busy seconds.
fn layer_times(v: &Values) -> [(&'static str, f64); 7] {
    [
        ("window", v.get("window.append_s")),
        ("reach", v.get("reach.before_s")),
        ("delta", v.get("delta.search_s")),
        ("sched", v.get("sched.overhead_s")),
        (
            "streaming",
            v.get("streaming.fan_out_s") + v.get("streaming.report_s"),
        ),
        (
            "store",
            v.get("store.append_s") + v.get("store.checkpoint_s") + v.get("recover.s"),
        ),
        ("par", v.get("oneshot.enumerate_s")),
    ]
}

/// Share of layer time in `predicted`, whether the largest layer is one of
/// them, and the largest layer's name.
fn predicted(v: &Values, predicted: &[&str]) -> (f64, bool, &'static str) {
    let times = layer_times(v);
    let total: f64 = times.iter().map(|(_, t)| t).sum();
    let mine: f64 = times
        .iter()
        .filter(|(n, _)| predicted.contains(n))
        .map(|(_, t)| t)
        .sum();
    let top = times
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |(n, _)| n);
    let share = if total > 0.0 { mine / total } else { 0.0 };
    (share, predicted.contains(&top), top)
}
