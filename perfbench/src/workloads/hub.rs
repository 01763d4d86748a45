//! `hub_bursts`: a stream of disjoint width-2, depth-14 `hub_burst`
//! lattices. Each gadget arrives as 16-edge lead-in batches that close
//! nothing, then a one-edge batch that closes all 2^14 cycles through a
//! single root. One temporal subscription at `FineGrained` on 2 threads:
//! all the work sits behind one root, so the fine-grained task split and
//! the scheduler's stealing (`pce-core::delta`, `pce-sched`) dominate.

use crate::rng::splitmix;
use crate::stream::{self, Shadow, UnionPass};
use crate::{stats, Ctx, Stopwatch, Workload, THREADS};
use pce_core::graph::generators::{hub_burst, hub_burst_cycle_count};
use pce_core::graph::{TemporalEdge, Timestamp, VertexId};
use pce_core::{Granularity, MultiStreamingEngine, QueryId, StreamingQuery};

/// Lattice width.
pub const WIDTH: usize = 2;
/// Lattice depth: each burst closes `WIDTH^DEPTH` cycles.
pub const DEPTH: usize = 14;
/// Gadgets per pass.
pub const BURSTS: usize = 128;
/// Edges per lead-in batch.
pub const LEAD_IN_EDGES: usize = 16;

/// One gadget's batches: its lead-in batches, then the closing batch.
pub type Gadget = (Vec<Vec<TemporalEdge>>, Vec<TemporalEdge>);

/// The stream of a pass: `BURSTS` copies of the lattice, each on its own
/// block of vertex ids and its own time slot, spaced by seeded random gaps.
/// Vertex ids are not shuffled: burst latency moves with the order in which
/// vertex blocks arrive (on a 2-core x86-64 VM, a wall-clock p50 of 41–57 ms
/// over five shuffled seeds, against ±3% between runs of one seed), which
/// would drown the figure this workload exists for. Every seed therefore
/// asks for the same search work. Returns the gadgets and the lattice's
/// time span.
pub fn gadgets(seed: u64) -> (Vec<Gadget>, Timestamp) {
    let lattice = hub_burst(WIDTH, DEPTH);
    let span = lattice.time_span();
    let n = lattice.num_vertices() as VertexId;
    let mut state = seed;
    let mut t0: Timestamp = 0;
    let gadgets = (0..BURSTS as VertexId)
        .map(|block| {
            // At least twice the span apart: a gadget arrives into an
            // empty window.
            t0 += 2 * (span + 1) + (splitmix(&mut state) % (span as u64 + 1)) as Timestamp;
            let base = block * n;
            let edges: Vec<TemporalEdge> = lattice
                .edges()
                .iter()
                .map(|e| TemporalEdge::new(base + e.src, base + e.dst, t0 + e.ts))
                .collect();
            // The lattice's edges are in stream order; the closing edge is
            // its unique latest one.
            let (lead_in, closing) = edges.split_at(edges.len() - 1);
            (stream::batches(lead_in, LEAD_IN_EDGES), closing.to_vec())
        })
        .collect();
    (gadgets, span)
}

/// The subscription: temporal cycles within one gadget's span.
pub fn query(span: Timestamp) -> StreamingQuery {
    StreamingQuery::temporal(span)
}

/// The `hub_bursts` workload.
#[derive(Default)]
pub struct HubBursts;

struct Setup {
    gadgets: Vec<Gadget>,
    span: Timestamp,
    engine: MultiStreamingEngine,
    id: QueryId,
}

fn engine(
    ctx: &mut Ctx,
    threads: usize,
    granularity: Granularity,
    span: Timestamp,
) -> Option<(MultiStreamingEngine, QueryId)> {
    let engine = MultiStreamingEngine::with_threads(span, threads);
    let mut engine = ctx
        .check
        .op("engine build", engine)?
        .with_granularity(granularity);
    engine.engine().pool();
    let id = ctx.setup_step("setup.subscribe", "setup.subscribe_s", |ctx| {
        ctx.check.op("subscribe", engine.subscribe(query(span)))
    })?;
    Some((engine, id))
}

impl HubBursts {
    fn setup(&mut self, ctx: &mut Ctx) -> Option<Setup> {
        ctx.timed_setup(|ctx| {
            let seed = ctx.seed;
            let (gadgets, span) =
                ctx.setup_step("setup.generate", "setup.generate_s", |_| gadgets(seed));
            let (engine, id) = engine(ctx, THREADS, Granularity::FineGrained, span)?;
            Some(Setup {
                gadgets,
                span,
                engine,
                id,
            })
        })
    }
}

/// Feeds every gadget to `engine`, checking each burst's count; returns
/// the closing batches' latencies. With a shadow, replays every batch
/// through it and records the engine's per-layer figures.
fn replay(
    ctx: &mut Ctx,
    engine: &mut MultiStreamingEngine,
    id: QueryId,
    gadgets: &[Gadget],
    mut shadow: Option<&mut Shadow>,
    record: bool,
) -> Vec<f64> {
    let expected = hub_burst_cycle_count(WIDTH, DEPTH);
    let mut bursts = Vec::with_capacity(gadgets.len());
    let mut index = 0u64;
    for (lead_in, closing) in gadgets {
        let mut quiet = true;
        let batches = lead_in.iter().map(|b| (b, false)).chain([(closing, true)]);
        for (batch, is_burst) in batches {
            let span = ctx.tracer.begin("ingest");
            let t = Stopwatch::start();
            let result = engine.ingest(batch);
            let cost = t.stop();
            ctx.tracer.end(span);
            let Some(report) = ctx.check.op("ingest", result) else {
                continue;
            };
            let found = report.report(id).map_or(0, |r| r.cycles_found);
            if is_burst {
                bursts.push(cost.wall);
                ctx.check.record(quiet && found == expected, || {
                    format!("burst {index}: {found} cycles, expected {expected}")
                });
            } else {
                quiet &= found == 0;
            }
            if record {
                if is_burst {
                    ctx.e2e.alert(cost, batch.len());
                } else {
                    ctx.e2e.call(cost, batch.len());
                }
            }
            if let Some(shadow) = shadow.as_deref_mut() {
                shadow.replay(ctx, batch, index, &report, engine.graph());
                stream::absorb_report(ctx, &report, cost.wall);
            }
            index += 1;
        }
    }
    bursts
}

impl Workload for HubBursts {
    fn pass(&mut self, ctx: &mut Ctx) {
        let Some(Setup {
            gadgets,
            span,
            mut engine,
            id,
        }) = self.setup(ctx)
        else {
            return;
        };
        let mut shadow = ctx.shadow.then(|| {
            Shadow::new(span, UnionPass::covering(&[query(span)]), None, 0)
                .expect("in-memory shadow")
        });
        replay(ctx, &mut engine, id, &gadgets, shadow.as_mut(), true);
        if ctx.shadow {
            stream::finish_sched(ctx);
        }
    }

    fn setup_only(&mut self, ctx: &mut Ctx) {
        self.setup(ctx);
    }

    fn verify(&mut self, _ctx: &mut Ctx) {}

    /// The same bursts at `Sequential` on one thread: the single-thread
    /// baseline the fine-grained split is judged against.
    fn trace_extra(&mut self, ctx: &mut Ctx) {
        let (gadgets, span) = gadgets(ctx.seed);
        let shadow = std::mem::replace(&mut ctx.shadow, false);
        let span_id = ctx.tracer.begin("sched.seq_bursts");
        if let Some((mut engine, id)) = engine(ctx, 1, Granularity::Sequential, span) {
            let bursts = replay(ctx, &mut engine, id, &gadgets, None, false);
            let p50 = stats::median(&bursts).unwrap_or(f64::NAN);
            ctx.layers.set("sched.seq_burst_p50_ms", p50 * 1e3);
        }
        ctx.tracer.end(span_id);
        ctx.shadow = shadow;
    }

    fn predicted_layers(&self) -> &'static [&'static str] {
        &["delta", "sched"]
    }

    fn summary(&self, ctx: &Ctx) -> Vec<String> {
        let walls = ctx.e2e.alert_walls();
        vec![format!(
            "burst_p50_ms {:.4}, burst_p90_ms {:.4} over {} bursts of {} cycles (wall clock)",
            stats::percentile(&walls, 0.5).unwrap_or(f64::NAN) * 1e3,
            stats::percentile(&walls, 0.9).unwrap_or(f64::NAN) * 1e3,
            walls.len(),
            hub_burst_cycle_count(WIDTH, DEPTH)
        )]
    }
}
