//! Reference outputs and the independent computations behind them.
//!
//! For a workload's default seed the expected stream totals are stored here,
//! computed once with the one-shot `Engine::count` over the whole generated
//! graph (`perfbench --reference` prints them, cross-checked against dedicated
//! streaming engines; about 5.5 minutes on a 2-core x86-64 machine).
//! For any other seed the benchmark computes them after the measured
//! passes, untimed, with dedicated single-query `StreamingEngine`s (see
//! [`dedicated_totals`]).

use pce_core::graph::{TemporalEdge, TemporalGraph, Timestamp};
use pce_core::{
    CollectMode, CycleKind, Engine, Query, StreamingEngine, StreamingError, StreamingQuery,
};

/// Default seed of `fraud_temporal` (the generator seed of the repo's
/// default transaction stream).
pub const FRAUD_SEED: u64 = 77;
/// Default seed of `portfolio_durable`.
pub const DURABLE_SEED: u64 = 91;
/// Default seed of `hub_bursts`.
pub const HUB_SEED: u64 = 14;
/// Default seed of the one-shot workloads (the CO stand-in's own seed).
pub const ONESHOT_SEED: u64 = 103;

/// Total temporal cycles of the CO stand-in at its δ_t. The one-shot seed
/// only relabels vertices, so this holds for every seed.
pub const CO_TEMPORAL_CYCLES: u64 = 2_657_441;

/// Stream totals per profile of `fraud_temporal` at [`FRAUD_SEED`].
pub const FRAUD_TOTALS: &[(&str, u64)] = &[
    ("temporal-d5000-len8", 1211),
    ("temporal-d2500-len6", 992),
    ("temporal-d1250-len4", 132),
    ("temporal-d5000-len5", 904),
];

/// Stream totals per profile of `portfolio_durable` at [`DURABLE_SEED`].
pub const DURABLE_TOTALS: &[(&str, u64)] = &[
    ("temporal-d5000-len3", 324),
    ("temporal-d2500-len4", 532),
    ("simple-d1250-len5", 150),
    ("temporal-d625-len6", 39),
    ("temporal-d5000-len7", 1212),
    ("simple-d2500-len3", 278),
    ("temporal-d1250-len4", 128),
    ("temporal-d625-len5", 39),
    ("simple-d5000-len6", 1215),
    ("temporal-d2500-len7", 978),
    ("temporal-d1250-len3", 83),
    ("simple-d625-len4", 37),
    ("temporal-d5000-len5", 929),
    ("temporal-d2500-len6", 978),
    ("simple-d1250-len7", 159),
    ("temporal-d625-len3", 25),
];

/// A query's constraint profile, e.g. `temporal-d5000-len8`.
pub fn profile_name(q: &StreamingQuery) -> String {
    let kind = match q.kind() {
        CycleKind::Temporal => "temporal",
        CycleKind::Simple => "simple",
    };
    let len = q
        .max_len_bound()
        .map_or("any".to_string(), |l| l.to_string());
    format!("{kind}-d{}-len{len}", q.window_delta())
}

/// The distinct profiles of `queries`, in first-seen order.
pub fn distinct_profiles(queries: &[StreamingQuery]) -> Vec<StreamingQuery> {
    let mut seen: Vec<String> = Vec::new();
    let mut out = Vec::new();
    for q in queries {
        let name = profile_name(q);
        if !seen.contains(&name) {
            seen.push(name);
            out.push(q.clone().collect(CollectMode::Count));
        }
    }
    out
}

/// Stored totals as owned pairs.
pub fn stored(totals: &[(&str, u64)]) -> Vec<(String, u64)> {
    totals.iter().map(|(n, v)| (n.to_string(), *v)).collect()
}

/// Stream totals per distinct profile from dedicated single-query engines:
/// one collecting `StreamingEngine` per cycle kind, at the kind's widest
/// window and loosest length bound. A profile's total is the number of
/// collected cycles that fit its window (latest minus earliest timestamp at
/// most δ) and its length bound. One engine per kind rather than per
/// profile keeps the check to a few seconds: the temporal `_before` pass,
/// which dominates, then runs once instead of once per temporal profile.
pub fn dedicated_totals(
    queries: &[StreamingQuery],
    batches: &[Vec<TemporalEdge>],
    retention: Timestamp,
    threads: usize,
) -> Result<Vec<(String, u64)>, StreamingError> {
    let profiles = distinct_profiles(queries);
    let mut totals = vec![0u64; profiles.len()];
    for kind in [CycleKind::Temporal, CycleKind::Simple] {
        let mine: Vec<&StreamingQuery> = profiles.iter().filter(|q| q.kind() == kind).collect();
        let Some(delta) = mine.iter().map(|q| q.window_delta()).max() else {
            continue;
        };
        let max_len = mine
            .iter()
            .map(|q| q.max_len_bound())
            .try_fold(0, |acc, l| l.map(|l| acc.max(l)));
        let base = match kind {
            CycleKind::Temporal => StreamingQuery::temporal(delta),
            CycleKind::Simple => StreamingQuery::simple(delta),
        };
        let mut q = base.collect(CollectMode::Collect);
        if let Some(len) = max_len {
            q = q.max_len(len);
        }
        let mut engine = StreamingEngine::with_threads(retention, q, threads)?;
        for batch in batches {
            for c in engine.ingest(batch)?.cycles {
                let ts = c.edges.iter().map(|e| e.ts);
                let span = ts.clone().max().unwrap_or(0) - ts.min().unwrap_or(0);
                for (total, p) in totals.iter_mut().zip(&profiles) {
                    let fits = p.kind() == kind
                        && span <= p.window_delta()
                        && p.max_len_bound().is_none_or(|l| c.len() <= l);
                    *total += u64::from(fits);
                }
            }
        }
    }
    Ok(profiles.iter().map(profile_name).zip(totals).collect())
}

/// Totals per distinct profile from the one-shot engine over the whole
/// graph: the stream reports each cycle once, at the batch that closes it,
/// so its lifetime total is the one-shot count at the same constraints.
pub fn oneshot_totals(
    queries: &[StreamingQuery],
    graph: &TemporalGraph,
    threads: usize,
) -> Vec<(String, u64)> {
    let engine = Engine::with_threads(threads);
    distinct_profiles(queries)
        .iter()
        .map(|q| {
            let base = match q.kind() {
                CycleKind::Temporal => Query::temporal(),
                CycleKind::Simple => Query::simple(),
            };
            let mut query = base.window(q.window_delta()).collect(CollectMode::Count);
            if let Some(len) = q.max_len_bound() {
                query = query.max_len(len);
            }
            let n = engine.count(&query, graph).expect("valid one-shot query");
            (profile_name(q), n)
        })
        .collect()
}
