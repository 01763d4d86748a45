//! What the stream workloads share: the per-batch layer accounting from
//! `MultiBatchReport`, and the traced pass's shadow calls.

use crate::Ctx;
use pce_core::delta::{delta_simple_with_scratch, delta_temporal_with_scratch};
use pce_core::graph::reach::CycleUnionWorkspace;
use pce_core::graph::stream::SlidingWindowGraph;
use pce_core::graph::{EdgeId, GraphView, TemporalEdge, TimeWindow, Timestamp};
use pce_core::seq::RootScratch;
use pce_core::{
    CountingSink, CycleKind, CyclePredicate, MultiBatchReport, SimpleCycleOptions, StreamingQuery,
    TemporalCycleOptions,
};
use pce_store::{FsStore, SegmentLog};
use std::path::Path;
use std::time::Instant;

/// The loosest constraints of a portfolio: the one shared pass the
/// multi-query engine runs per batch (temporal only when every query is).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnionPass {
    /// Whether the pass enumerates temporal cycles.
    pub temporal: bool,
    /// The widest window δ.
    pub delta: Timestamp,
    /// The loosest length bound (`None` when any query is unbounded).
    pub max_len: Option<usize>,
}

impl UnionPass {
    /// The pass covering `queries` (which must not be empty).
    pub fn covering(queries: &[StreamingQuery]) -> Self {
        let mut pass = UnionPass {
            temporal: true,
            delta: queries[0].window_delta(),
            max_len: queries[0].max_len_bound(),
        };
        for q in queries {
            pass.temporal &= q.kind() == CycleKind::Temporal;
            pass.delta = pass.delta.max(q.window_delta());
            pass.max_len = match (pass.max_len, q.max_len_bound()) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            };
        }
        pass
    }
}

/// Adds one batch's engine-reported figures to the traced pass's layers.
/// `call_secs` is the `ingest` call's time less any time the caller knows
/// was spent outside the engine (the durable log append).
pub fn absorb_report(ctx: &mut Ctx, report: &MultiBatchReport, call_secs: f64) {
    let v = &mut ctx.layers;
    v.add("window.append_s", report.ingest_secs);
    v.add("window.expired_edges", report.expired as f64);
    v.max("window.live_edges_max", report.live_edges as f64);
    v.add("streaming.enumerate_s", report.enumerate_secs);
    v.add("streaming.fan_out_s", report.fan_out.fan_out_secs);
    v.add("streaming.fan_out_checks", report.fan_out.checks as f64);
    v.add("streaming.candidates", report.candidates as f64);
    let offered: u64 = report.fan_out.cohorts.iter().map(|c| c.offered).sum();
    let accepted: u64 = report.fan_out.cohorts.iter().map(|c| c.accepted).sum();
    v.add("streaming.offered", offered as f64);
    v.add("streaming.accepted", accepted as f64);
    v.add(
        "streaming.parallel_batches",
        f64::from(u8::from(report.fan_out.parallel)),
    );
    v.add(
        "streaming.report_s",
        (call_secs - report.ingest_secs - report.enumerate_secs).max(0.0),
    );
    let work = &report.stats.work;
    v.add("delta.edge_visits", work.total_edge_visits() as f64);
    v.add("delta.recursive_calls", work.total_recursive_calls() as f64);
    v.add("delta.union_members", work.total_union_members() as f64);
    v.add("delta.roots_processed", work.total_roots() as f64);
    v.add("delta.copy_events", work.total_copies() as f64);
    v.add("sched.steals", work.total_steals() as f64);
    let busy: u64 = work.workers.iter().map(|w| w.busy_nanos).sum();
    v.add("sched.busy_s", busy as f64 / 1e9);
    let active = work
        .workers
        .iter()
        .filter(|w| w.recursive_calls > 0)
        .count();
    if report.stats.threads > 1 && active > 0 {
        v.add("sched.parallel_passes", 1.0);
        v.add("sched.active_workers", active as f64);
        v.add("sched.parallel_busy_s", busy as f64 / 1e9);
        v.add(
            "sched.parallel_capacity_s",
            report.stats.threads as f64 * report.stats.wall_secs,
        );
    }
}

/// The scheduler figures derived from [`absorb_report`]'s sums.
pub fn finish_sched(ctx: &mut Ctx) {
    let v = &mut ctx.layers;
    let workers = v.ratio("sched.active_workers", "sched.parallel_passes");
    v.set("sched.busy_workers", workers);
    let capacity = v.get("sched.parallel_capacity_s");
    if capacity > 0.0 {
        let idle = 1.0 - v.get("sched.parallel_busy_s") / capacity;
        v.set("sched.idle_frac", idle);
    }
}

/// The traced pass's replica of the timed run: a second sliding window fed
/// the same batches, one scratch for the shadow `_before`/delta calls, and
/// optionally a second synced segment log.
pub struct Shadow {
    window: SlidingWindowGraph,
    pass: UnionPass,
    scratch: RootScratch,
    log: Option<SegmentLog<FsStore>>,
}

impl Shadow {
    /// A shadow for a stream with `retention` serving `pass`; with
    /// `log_dir`, shadow log appends go to a synced store there.
    pub fn new(
        retention: Timestamp,
        pass: UnionPass,
        log_dir: Option<&Path>,
        segment_bytes: u64,
    ) -> Result<Self, pce_store::StoreError> {
        let log = match log_dir {
            Some(dir) => Some(SegmentLog::create(
                FsStore::open(dir)?.with_sync(true),
                segment_bytes,
            )?),
            None => None,
        };
        Ok(Self {
            window: SlidingWindowGraph::new(retention),
            pass,
            scratch: RootScratch::new(0),
            log,
        })
    }

    /// Replays `batch` (the engine's batch `index`, already ingested by the
    /// timed call that produced `report` on `graph`) through each layer's
    /// public function. Returns the shadow log append's seconds.
    pub fn replay(
        &mut self,
        ctx: &mut Ctx,
        batch: &[TemporalEdge],
        index: u64,
        report: &MultiBatchReport,
        graph: &SlidingWindowGraph,
    ) -> f64 {
        let span = ctx.tracer.begin("window.append_batch");
        let appended = self.window.append_batch(batch);
        ctx.tracer.end(span);
        let Some(delta) = ctx.check.op("shadow append_batch", appended) else {
            return 0.0;
        };
        // The shadow must see exactly the timed run's batch: same effect on
        // the window, same root ids.
        let same = delta.appended == report.appended
            && delta.expired == report.expired
            && delta.window == report.window
            && self.window.live_edges().len() == report.live_edges
            && self.window.first_live_id() == graph.first_live_id()
            && graph.live_edges().len() == report.live_edges;
        ctx.check.record(same, || {
            format!("batch {index}: shadow window diverged from the engine's")
        });
        let roots = delta.roots;

        let pred = CyclePredicate::pass_all();
        self.scratch.ensure_vertices(graph.num_vertices());
        let span = ctx.tracer.begin("reach.before");
        let t = Instant::now();
        // Roots whose `_before` pass found a way back, with that pass's time.
        let mut closing: Vec<(EdgeId, f64)> = Vec::new();
        let union: &mut CycleUnionWorkspace = &mut self.scratch.union;
        for root in roots.clone() {
            let e = graph.edge(root);
            if e.src == e.dst {
                continue;
            }
            let window = TimeWindow::new(e.ts.saturating_sub(self.pass.delta), e.ts);
            let t_root = Instant::now();
            let reachable = if self.pass.temporal {
                union.compute_temporal_before(graph, root, window, &pred)
            } else {
                union.compute_simple_before(graph, root, window, &pred)
            };
            if reachable {
                closing.push((root, t_root.elapsed().as_secs_f64()));
            }
        }
        let before = t.elapsed().as_secs_f64();
        ctx.tracer.end(span);
        ctx.layers.add("reach.before_s", before);
        ctx.layers.add("reach.roots", roots.len() as f64);
        ctx.layers.add("reach.closing_roots", closing.len() as f64);

        // Only a root that can close has a search behind its `_before`
        // pass; each is timed alone, so its own `_before` time comes off.
        let span = ctx.tracer.begin("delta.search");
        let mut cycles = 0u64;
        for (root, before) in closing {
            let sink = CountingSink::new();
            let root_range = root..root + 1;
            let t = Instant::now();
            let stats = if self.pass.temporal {
                let opts = TemporalCycleOptions {
                    window_delta: self.pass.delta,
                    max_len: self.pass.max_len,
                };
                delta_temporal_with_scratch(
                    graph,
                    root_range,
                    Timestamp::MIN,
                    &opts,
                    &pred,
                    &sink,
                    &mut self.scratch,
                )
            } else {
                let opts = SimpleCycleOptions {
                    window_delta: Some(self.pass.delta),
                    max_len: self.pass.max_len,
                    include_self_loops: false,
                };
                delta_simple_with_scratch(
                    graph,
                    root_range,
                    Timestamp::MIN,
                    &opts,
                    &pred,
                    &sink,
                    &mut self.scratch,
                )
            };
            ctx.layers
                .add("delta.search_s", t.elapsed().as_secs_f64() - before);
            cycles += stats.cycles;
        }
        ctx.tracer.end(span);
        ctx.check.record(cycles == report.candidates, || {
            format!(
                "batch {index}: shadow delta found {cycles} cycles, the shared pass {}",
                report.candidates
            )
        });

        let Some(log) = self.log.as_mut() else {
            return 0.0;
        };
        let span = ctx.tracer.begin("store.append");
        let t = Instant::now();
        let r = log.append(index, batch);
        let secs = t.elapsed().as_secs_f64();
        ctx.tracer.end(span);
        ctx.check.op("shadow log append", r);
        ctx.layers.add("store.append_s", secs);
        secs
    }
}

/// Cuts `edges` (in stream order) into batches of `size` edges.
pub fn batches(edges: &[TemporalEdge], size: usize) -> Vec<Vec<TemporalEdge>> {
    edges.chunks(size).map(<[TemporalEdge]>::to_vec).collect()
}
