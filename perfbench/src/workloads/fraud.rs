//! `fraud_temporal`: the transaction-ring stream at 10× the default scale
//! through an in-memory `MultiStreamingEngine` serving four temporal-only
//! subscriptions. A temporal-only portfolio keeps the temporal `_before`
//! pass on every root, so `pce-graph::reach` is predicted to dominate.

use crate::reference::{self, profile_name};
use crate::stats;
use crate::stream::{self, Shadow, UnionPass};
use crate::{Ctx, Stopwatch, Workload, THREADS};
use pce_core::graph::generators::{transaction_rings, TransactionRingConfig};
use pce_core::graph::{TemporalEdge, TemporalGraph, Timestamp};
use pce_core::{CollectMode, MultiStreamingEngine, QueryId, StreamCycle, StreamingQuery};

/// Sliding-window retention.
pub const RETENTION: Timestamp = 60_000;
/// The widest subscribed window δ.
pub const DELTA: Timestamp = 5_000;
/// Edges per ingest batch.
pub const BATCH_EDGES: usize = 500;

/// The stream: `transaction_rings` at 10× the scale of the repo's default
/// streaming scenario (≈605k edges, 50k accounts, 1200 planted rings).
pub fn ring_config(seed: u64) -> TransactionRingConfig {
    TransactionRingConfig {
        num_accounts: 50_000,
        background_edges: 600_000,
        num_rings: 1_200,
        ring_len: (3, 6),
        time_span: 1_000_000,
        ring_span: 5_000,
        seed,
    }
}

/// The generated stream graph for `seed`.
pub fn generate(seed: u64) -> TemporalGraph {
    transaction_rings(ring_config(seed)).0
}

/// The portfolio: three counting queries at δ, δ/2 and δ/4 with length
/// bounds 8, 6 and 4, and one alerting (collecting) δ query bounded at 5
/// hops.
pub fn portfolio() -> Vec<StreamingQuery> {
    vec![
        StreamingQuery::temporal(DELTA)
            .max_len(8)
            .collect(CollectMode::Count),
        StreamingQuery::temporal(DELTA / 2)
            .max_len(6)
            .collect(CollectMode::Count),
        StreamingQuery::temporal(DELTA / 4)
            .max_len(4)
            .collect(CollectMode::Count),
        StreamingQuery::temporal(DELTA)
            .max_len(ALERT_MAX_LEN)
            .collect(CollectMode::Collect),
    ]
}

/// The collecting subscription's constraints.
const ALERT_MAX_LEN: usize = 5;

/// Whether `c` is a temporal cycle of at most `max_len` hops spanning at
/// most `delta`: from its earliest edge, consecutive edges chain through
/// the listed vertices, the last returns to the start, and timestamps
/// strictly increase.
pub fn valid_temporal_cycle(c: &StreamCycle, delta: Timestamp, max_len: usize) -> bool {
    let c = c.canonicalize();
    let edges = &c.edges;
    let (Some(first), Some(last)) = (edges.first(), edges.last()) else {
        return false;
    };
    edges.len() <= max_len
        && edges.len() == c.vertices.len()
        && edges.iter().zip(&c.vertices).all(|(e, &v)| e.src == v)
        && edges
            .windows(2)
            .all(|w| w[0].dst == w[1].src && w[0].ts < w[1].ts)
        && last.dst == first.src
        && last.ts - first.ts <= delta
}

/// The `fraud_temporal` workload.
#[derive(Default)]
pub struct FraudTemporal {
    /// Per-profile totals of every pass, checked in `verify`.
    pass_totals: Vec<Vec<(String, u64)>>,
    alerts: u64,
}

struct Setup {
    batches: Vec<Vec<TemporalEdge>>,
    engine: MultiStreamingEngine,
    ids: Vec<(QueryId, StreamingQuery)>,
}

impl FraudTemporal {
    fn setup(&mut self, ctx: &mut Ctx) -> Option<Setup> {
        ctx.timed_setup(|ctx| {
            let seed = ctx.seed;
            let batches = ctx.setup_step("setup.generate", "setup.generate_s", |_| {
                stream::batches(generate(seed).edges(), BATCH_EDGES)
            });
            let engine = MultiStreamingEngine::with_threads(RETENTION, THREADS);
            let mut engine = ctx.check.op("engine build", engine)?;
            // Start the pool now: its spawn is set-up, not ingest time.
            engine.engine().pool();
            let ids = ctx.setup_step("setup.subscribe", "setup.subscribe_s", |ctx| {
                portfolio()
                    .into_iter()
                    .filter_map(|q| {
                        let id = engine.subscribe(q.clone());
                        ctx.check.op("subscribe", id).map(|id| (id, q))
                    })
                    .collect()
            });
            Some(Setup {
                batches,
                engine,
                ids,
            })
        })
    }
}

impl Workload for FraudTemporal {
    fn pass(&mut self, ctx: &mut Ctx) {
        let Some(Setup {
            batches,
            mut engine,
            ids,
        }) = self.setup(ctx)
        else {
            return;
        };
        let queries: Vec<StreamingQuery> = ids.iter().map(|(_, q)| q.clone()).collect();
        let mut shadow = ctx.shadow.then(|| {
            Shadow::new(RETENTION, UnionPass::covering(&queries), None, 0)
                .expect("in-memory shadow")
        });
        let alert_id = ids
            .iter()
            .find(|(_, q)| q.collect_mode() == CollectMode::Collect)
            .map(|(id, _)| *id);
        let mut bad_alerts = 0u64;
        for (index, batch) in batches.iter().enumerate() {
            let span = ctx.tracer.begin("ingest");
            let t = Stopwatch::start();
            let result = engine.ingest(batch);
            let cost = t.stop();
            ctx.tracer.end(span);
            let Some(report) = ctx.check.op("ingest", result) else {
                continue;
            };
            ctx.e2e.alert(cost, batch.len());
            if let Some(alert) = alert_id.and_then(|id| report.report(id)) {
                self.alerts += alert.cycles_found;
                let ok = alert.cycles.len() as u64 == alert.cycles_found
                    && alert
                        .cycles
                        .iter()
                        .all(|c| valid_temporal_cycle(c, DELTA, ALERT_MAX_LEN));
                bad_alerts += u64::from(!ok);
            }
            if let Some(shadow) = shadow.as_mut() {
                shadow.replay(ctx, batch, index as u64, &report, engine.graph());
                stream::absorb_report(ctx, &report, cost.wall);
            }
        }
        ctx.check.record(bad_alerts == 0, || {
            format!("{bad_alerts} batches delivered malformed alerts")
        });
        if ctx.shadow {
            stream::finish_sched(ctx);
        }
        let mut totals: Vec<(String, u64)> = Vec::new();
        for (id, q) in &ids {
            let name = profile_name(q);
            let total = engine.total_cycles(*id).unwrap_or(0);
            match totals.iter().find(|(n, _)| *n == name) {
                // Two subscriptions with one profile must agree.
                Some((_, t)) => {
                    let t = *t;
                    ctx.check
                        .record(t == total, || format!("{name}: {total} vs {t}"));
                }
                None => totals.push((name, total)),
            }
        }
        self.pass_totals.push(totals);
    }

    fn setup_only(&mut self, ctx: &mut Ctx) {
        self.setup(ctx);
    }

    fn verify(&mut self, ctx: &mut Ctx) {
        let expected = if ctx.seed == reference::FRAUD_SEED {
            reference::stored(reference::FRAUD_TOTALS)
        } else {
            let batches = stream::batches(generate(ctx.seed).edges(), BATCH_EDGES);
            let totals = reference::dedicated_totals(&portfolio(), &batches, RETENTION, THREADS);
            match ctx.check.op("dedicated engines", totals) {
                Some(t) => t,
                None => return,
            }
        };
        for got in &self.pass_totals {
            ctx.check.totals("fraud_temporal", &expected, got);
        }
    }

    fn predicted_layers(&self) -> &'static [&'static str] {
        &["reach"]
    }

    fn summary(&self, ctx: &Ctx) -> Vec<String> {
        let walls = ctx.e2e.alert_walls();
        vec![format!(
            "edges_per_s {:.0}, alert_p50_ms {:.4}, alert_p99_ms {:.4} (n={}, wall clock); {} alerts delivered",
            ctx.e2e.edges as f64 / ctx.e2e.busy.wall,
            stats::percentile(&walls, 0.5).unwrap_or(f64::NAN) * 1e3,
            stats::percentile(&walls, 0.99).unwrap_or(f64::NAN) * 1e3,
            walls.len(),
            self.alerts
        )]
    }
}
