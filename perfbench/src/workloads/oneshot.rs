//! `oneshot_johnson` and `oneshot_read_tarjan`: the paper's own one-shot
//! fine-grained enumerators (`pce-core::par`) on the CO stand-in, temporal
//! cycles at its δ_t (≈2.66M cycles), through `Engine::run` on 2 threads.
//! The seed relabels the vertices, so every seed is the same search on an
//! isomorphic graph: the cycle count is fixed and the timings are
//! comparable across seeds.

use crate::reference::{CO_TEMPORAL_CYCLES, ONESHOT_SEED};
use crate::rng::permutation;
use crate::{stats, Ctx, Stopwatch, Workload, THREADS};
use pce_core::graph::{GraphBuilder, TemporalEdge, TemporalGraph, Timestamp};
use pce_core::{Algorithm, CollectMode, Engine, Granularity, Query, RunStats};
use pce_workloads::{dataset, DatasetId};
use std::time::Instant;

/// The CO stand-in with its vertices relabelled by `seed`, and its δ_t.
pub fn graph(seed: u64) -> (TemporalGraph, Timestamp) {
    let spec = dataset(DatasetId::CO);
    let base = spec.build().graph;
    let mut state = seed;
    let perm = permutation(base.num_vertices(), &mut state);
    let mut builder = GraphBuilder::with_vertices(base.num_vertices());
    for e in base.edges() {
        builder.push_attr_edge(TemporalEdge {
            src: perm[e.src as usize],
            dst: perm[e.dst as usize],
            ..*e
        });
    }
    (builder.build(), spec.delta_temporal)
}

/// The temporal query at `delta` for `algorithm` and `granularity`.
pub fn query(algorithm: Algorithm, granularity: Granularity, delta: Timestamp) -> Query {
    Query::temporal()
        .window(delta)
        .algorithm(algorithm)
        .granularity(granularity)
        .collect(CollectMode::Count)
}

/// A one-shot workload running one fine-grained algorithm.
pub struct OneShot {
    algorithm: Algorithm,
    counts: Vec<u64>,
}

impl OneShot {
    /// The workload for `algorithm` (Johnson or Read–Tarjan).
    pub fn new(algorithm: Algorithm) -> Self {
        Self {
            algorithm,
            counts: Vec::new(),
        }
    }

    fn setup(&mut self, ctx: &mut Ctx) -> (TemporalGraph, Timestamp, Engine) {
        ctx.timed_setup(|ctx| {
            let seed = ctx.seed;
            let (graph, delta) =
                ctx.setup_step("setup.generate", "setup.generate_s", |_| graph(seed));
            let engine = Engine::with_threads(THREADS);
            // Start the pool now: its spawn is set-up, not query time.
            engine.pool();
            (graph, delta, engine)
        })
    }
}

/// Adds a one-shot run's work counters to the traced pass's layers.
fn absorb(ctx: &mut Ctx, stats: &RunStats) {
    let v = &mut ctx.layers;
    let work = &stats.work;
    v.add("oneshot.enumerate_s", stats.wall_secs);
    v.add("oneshot.edge_visits", work.total_edge_visits() as f64);
    v.add("oneshot.copy_events", work.total_copies() as f64);
    v.add("oneshot.steal_events", work.total_steals() as f64);
    let busy: u64 = work.workers.iter().map(|w| w.busy_nanos).sum();
    let capacity = stats.threads as f64 * stats.wall_secs;
    if capacity > 0.0 {
        v.set("oneshot.idle_frac", 1.0 - busy as f64 / 1e9 / capacity);
    }
}

impl Workload for OneShot {
    fn pass(&mut self, ctx: &mut Ctx) {
        let (graph, delta, engine) = self.setup(ctx);
        let q = query(self.algorithm, Granularity::FineGrained, delta);
        let span = ctx.tracer.begin("oneshot.run");
        let t = Stopwatch::start();
        let result = engine.run(&q, &graph);
        let cost = t.stop();
        ctx.tracer.end(span);
        let Some(result) = ctx.check.op("Engine::run", result) else {
            return;
        };
        ctx.e2e.alert(cost, graph.edges().len());
        self.counts.push(result.stats.cycles);
        if ctx.shadow {
            absorb(ctx, &result.stats);
        }
    }

    fn setup_only(&mut self, ctx: &mut Ctx) {
        self.setup(ctx);
    }

    /// Every fine-grained count equals an untimed coarse-grained run's and
    /// the stand-in's known total (relabelling preserves cycles).
    fn verify(&mut self, ctx: &mut Ctx) {
        let (graph, delta) = graph(ctx.seed);
        let engine = Engine::with_threads(THREADS);
        let q = query(Algorithm::Johnson, Granularity::CoarseGrained, delta);
        let span = ctx.tracer.begin("oneshot.coarse");
        let t = Instant::now();
        let coarse = engine.count(&q, &graph);
        let secs = t.elapsed().as_secs_f64();
        ctx.tracer.end(span);
        let Some(coarse) = ctx.check.op("coarse Engine::count", coarse) else {
            return;
        };
        ctx.layers.set("oneshot.coarse_s", secs);
        ctx.check.record(coarse == CO_TEMPORAL_CYCLES, || {
            format!("coarse count {coarse}, reference {CO_TEMPORAL_CYCLES} (seed {ONESHOT_SEED} stand-in)")
        });
        for &n in &self.counts {
            ctx.check.record(n == coarse, || {
                format!("{:?} fine count {n}, coarse {coarse}", self.algorithm)
            });
        }
    }

    fn predicted_layers(&self) -> &'static [&'static str] {
        &["par"]
    }

    fn summary(&self, ctx: &Ctx) -> Vec<String> {
        let name = match self.algorithm {
            Algorithm::ReadTarjan => "fine_read_tarjan_s",
            _ => "fine_johnson_s",
        };
        vec![format!(
            "{name} {:.4} (wall clock, median of {} runs, {} cycles each)",
            stats::median(&ctx.e2e.alert_walls()).unwrap_or(f64::NAN),
            ctx.e2e.alerts.len(),
            self.counts.first().copied().unwrap_or(0)
        )]
    }
}
