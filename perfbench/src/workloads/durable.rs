//! `portfolio_durable`: the same transaction generator (another default
//! seed) through a `DurableMultiStreamingEngine` on a synced `FsStore`,
//! serving `large_portfolio(1024, δ)` — 16 profiles mixing simple and
//! temporal, so the shared pass is the cheap simple one. The client
//! checkpoints every 256 batches; at the end the engine is dropped and
//! `recover` rebuilds it from the store. The write path (log append and
//! fsync, checkpoints, recovery) and the 1024-way fan-out are predicted to
//! dominate.

use super::fraud::{generate, BATCH_EDGES, DELTA, RETENTION};
use crate::reference::{self, profile_name};
use crate::stream::{self, Shadow, UnionPass};
use crate::Stopwatch;
use crate::{stats, Ctx, WorkDir, Workload, THREADS};
use pce_core::graph::TemporalEdge;
use pce_core::{QueryId, StreamingQuery};
use pce_store::{recover, DurableConfig, DurableMultiStreamingEngine, FsStore};
use pce_workloads::streaming::large_portfolio;
use std::time::Instant;

/// Subscriptions.
pub const SUBSCRIPTIONS: usize = 1024;
/// Batches between the client's `checkpoint_now` calls.
pub const CHECKPOINT_EVERY: usize = 256;
/// Segment size: large enough that the log never rotates, so checkpoints
/// come only from subscribes and the client's cadence.
pub const SEGMENT_BYTES: u64 = 1 << 40;

/// The durable engine's configuration.
pub fn config() -> DurableConfig {
    DurableConfig {
        segment_bytes: SEGMENT_BYTES,
        threads: THREADS,
        ..DurableConfig::default()
    }
}

/// The `portfolio_durable` workload.
#[derive(Default)]
pub struct PortfolioDurable {
    pass_totals: Vec<Vec<(String, u64)>>,
    recoveries: Vec<f64>,
    replayed: u64,
}

struct Setup {
    batches: Vec<Vec<TemporalEdge>>,
    durable: DurableMultiStreamingEngine<FsStore>,
    ids: Vec<(QueryId, StreamingQuery)>,
    dir: WorkDir,
}

impl PortfolioDurable {
    fn setup(&mut self, ctx: &mut Ctx) -> Option<Setup> {
        let dir = ctx.fresh_dir("durable");
        let dir = ctx.check.op("store directory", dir)?;
        ctx.timed_setup(|ctx| {
            let seed = ctx.seed;
            let batches = ctx.setup_step("setup.generate", "setup.generate_s", |_| {
                stream::batches(generate(seed).edges(), BATCH_EDGES)
            });
            let store = FsStore::open(dir.path()).map(|s| s.with_sync(true));
            let store = ctx.check.op("store open", store)?;
            let durable = DurableMultiStreamingEngine::create(store, RETENTION, &config());
            let mut durable = ctx.check.op("engine build", durable)?;
            durable.engine().engine().pool();
            let ids = ctx.setup_step("setup.subscribe", "setup.subscribe_s", |ctx| {
                large_portfolio(SUBSCRIPTIONS, DELTA)
                    .into_iter()
                    .filter_map(|q| {
                        let id = durable.subscribe(q.clone());
                        ctx.check.op("subscribe", id).map(|id| (id, q))
                    })
                    .collect()
            });
            Some(Setup {
                batches,
                durable,
                ids,
                dir,
            })
        })
    }
}

impl Workload for PortfolioDurable {
    fn pass(&mut self, ctx: &mut Ctx) {
        let Some(Setup {
            batches,
            mut durable,
            ids,
            dir,
        }) = self.setup(ctx)
        else {
            return;
        };
        let mut shadow = None;
        if ctx.shadow {
            let queries: Vec<StreamingQuery> = ids.iter().map(|(_, q)| q.clone()).collect();
            let log_dir = ctx.fresh_dir("shadow-log");
            shadow = ctx.check.op("shadow log directory", log_dir).and_then(|d| {
                let s = Shadow::new(
                    RETENTION,
                    UnionPass::covering(&queries),
                    Some(d.path()),
                    SEGMENT_BYTES,
                );
                ctx.check.op("shadow log", s).map(|s| (s, d))
            });
        }
        for (index, batch) in batches.iter().enumerate() {
            let span = ctx.tracer.begin("ingest");
            let t = Stopwatch::start();
            let result = durable.ingest(batch);
            let cost = t.stop();
            ctx.tracer.end(span);
            let Some(report) = ctx.check.op("ingest", result) else {
                continue;
            };
            ctx.e2e.alert(cost, batch.len());
            if let Some((shadow, _)) = shadow.as_mut() {
                let graph = durable.engine().graph();
                let log_secs = shadow.replay(ctx, batch, index as u64, &report, graph);
                stream::absorb_report(ctx, &report, cost.wall - log_secs);
            }
            if (index + 1) % CHECKPOINT_EVERY == 0 {
                let span = ctx.tracer.begin("store.checkpoint");
                let t = Stopwatch::start();
                let r = durable.checkpoint_now();
                let cost = t.stop();
                ctx.tracer.end(span);
                ctx.check.op("checkpoint_now", r);
                ctx.e2e.call(cost, 0);
                if ctx.shadow {
                    ctx.layers.add("store.checkpoint_s", cost.wall);
                }
            }
        }
        if ctx.shadow {
            stream::finish_sched(ctx);
            ctx.layers
                .set("store.checkpoints", durable.checkpoints_written() as f64);
            ctx.layers
                .set("store.log_bytes", durable.log().total_bytes() as f64);
        }
        let live: Vec<u64> = ids
            .iter()
            .map(|(id, _)| durable.engine().total_cycles(*id).unwrap_or(0))
            .collect();
        let batches_done = durable.engine().batches();

        // Crash: drop the engine, keep the store, recover from it.
        let store = durable.into_store();
        let span = ctx.tracer.begin("store.recover");
        let t = Instant::now();
        let recovered = recover(store, &config());
        let secs = t.elapsed().as_secs_f64();
        ctx.tracer.end(span);
        self.recoveries.push(secs);
        let Some((recovered, info)) = ctx.check.op("recover", recovered) else {
            return;
        };
        if ctx.shadow {
            ctx.layers.set("recover.s", secs);
            ctx.layers
                .set("recover.replayed_batches", info.replayed.len() as f64);
            ctx.layers
                .set("recover.hydrated_batches", info.hydrated_batches as f64);
        }
        self.replayed = info.replayed.len() as u64;
        ctx.check.record(
            info.checkpoint_batches + info.replayed.len() as u64 == batches_done,
            || "recovery did not cover every batch".to_string(),
        );

        // Every recovered total equals the live one; subscribers sharing a
        // profile agree.
        let mut totals: Vec<(String, u64)> = Vec::new();
        for ((id, q), &live_total) in ids.iter().zip(&live) {
            let back = recovered.engine().total_cycles(*id);
            ctx.check.record(back == Some(live_total), || {
                format!("subscription {id:?}: recovered {back:?}, live {live_total}")
            });
            let name = profile_name(q);
            match totals.iter().find(|(n, _)| *n == name) {
                Some(&(_, t)) => ctx.check.record(t == live_total, || {
                    format!("{name}: subscribers disagree ({live_total} vs {t})")
                }),
                None => totals.push((name, live_total)),
            }
        }
        self.pass_totals.push(totals);
        drop(recovered);
        drop(dir);
    }

    fn setup_only(&mut self, ctx: &mut Ctx) {
        self.setup(ctx);
    }

    fn verify(&mut self, ctx: &mut Ctx) {
        let expected = if ctx.seed == reference::DURABLE_SEED {
            reference::stored(reference::DURABLE_TOTALS)
        } else {
            let batches = stream::batches(generate(ctx.seed).edges(), BATCH_EDGES);
            let portfolio = large_portfolio(SUBSCRIPTIONS, DELTA);
            let totals = reference::dedicated_totals(&portfolio, &batches, RETENTION, THREADS);
            match ctx.check.op("dedicated engines", totals) {
                Some(t) => t,
                None => return,
            }
        };
        for got in &self.pass_totals {
            ctx.check.totals("portfolio_durable", &expected, got);
        }
    }

    fn predicted_layers(&self) -> &'static [&'static str] {
        &["store", "streaming"]
    }

    fn summary(&self, ctx: &Ctx) -> Vec<String> {
        let walls = ctx.e2e.alert_walls();
        vec![format!(
            "edges_per_s {:.0}, alert_p50_ms {:.4}, alert_p99_ms {:.4} (n={}), recovery_s {:.4} (median of {}, {} batches replayed); wall clock",
            ctx.e2e.edges as f64 / ctx.e2e.busy.wall,
            stats::percentile(&walls, 0.5).unwrap_or(f64::NAN) * 1e3,
            stats::percentile(&walls, 0.99).unwrap_or(f64::NAN) * 1e3,
            walls.len(),
            stats::median(&self.recoveries).unwrap_or(f64::NAN),
            self.recoveries.len(),
            self.replayed
        )]
    }
}
