//! Temporal-cycle enumeration (§7): cycles whose edges appear in strictly
//! increasing timestamp order within a time window.
//!
//! The temporal search itself lives in [`crate::delta`]: the search rooted
//! at edge `e` enumerates every temporal cycle whose last — and therefore
//! strictly largest — edge is `e`, walking time-ordered paths from `e`'s
//! head back to its tail over earlier edges inside the window. Because the
//! last edge of a temporal cycle is unique, rooting the search at every edge
//! yields every temporal cycle exactly once; [`Engine`](crate::Engine) runs
//! one-shot temporal queries that way, at every granularity.
//!
//! Two prunings keep each rooted search tight, mirroring the design of §7 of
//! the paper:
//!
//! 1. **Cycle-union preprocessing**: only vertices that are temporally
//!    reachable from the root's head *and* can temporally reach its tail
//!    within the window are ever visited
//!    ([`pce_graph::reach::CycleUnionWorkspace`]).
//! 2. **Closing times**: the same backward pass computes, for every vertex
//!    `w`, the latest timestamp at which a temporal path can still leave `w`
//!    towards the root's tail; arriving later than that is pruned
//!    immediately. This is a static, per-root form of 2SCENT's closing-time
//!    pruning: it ignores the simple-path constraint, so it can never prune a
//!    real cycle, and unlike 2SCENT's sequential preprocessing it
//!    parallelises trivially across roots.
//!
//! [`two_scent_baseline`] packages the same rooted search behind a strictly
//! sequential, timestamp-ordered driver and stands in for the serial 2SCENT
//! implementation that Figure 9 of the paper compares against.

use crate::cycle::CycleSink;
use crate::delta::delta_temporal_with_scratch;
use crate::metrics::RunStats;
use crate::options::TemporalCycleOptions;
use crate::seq::RootScratch;
use pce_graph::{CyclePredicate, EdgeId, TemporalGraph, Timestamp};

/// The 2SCENT-style serial baseline of Kumar and Calders used as the
/// reference point of the paper's Figure 9.
///
/// Algorithmically it performs the same rooted temporal searches with
/// closing-time pruning as every one-shot temporal query, but the driver is
/// strictly sequential: root edges are processed one by one in ascending
/// timestamp order and the reachability preprocessing for root *i+1* is only
/// started after the search for root *i* finished — exactly the dependency
/// structure that makes the original 2SCENT preprocessing impossible to
/// parallelise and motivates the paper's replacement preprocessing.
pub fn two_scent_baseline<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &TemporalCycleOptions,
    sink: &S,
) -> RunStats {
    // Root edges are stored in ascending (timestamp, id) order, so the
    // sequential sweep over ascending ids is the timestamp-ordered sweep of
    // 2SCENT.
    delta_temporal_with_scratch(
        graph,
        0..graph.num_edges() as EdgeId,
        Timestamp::MIN,
        opts,
        &CyclePredicate::pass_all(),
        sink,
        &mut RootScratch::new(graph.num_vertices()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{CollectingSink, CountingSink};
    use crate::{Algorithm, CollectMode, Engine, Granularity, Query};
    use pce_graph::generators::{self, RandomTemporalConfig, TransactionRingConfig};
    use pce_graph::GraphBuilder;

    // The brute-force oracle that used to live here moved to the shared
    // differential-test module; see `crate::testing::oracle_temporal`.
    use crate::testing::oracle_temporal;

    #[test]
    fn directed_cycle_is_a_temporal_cycle() {
        let g = generators::directed_cycle(5);
        let sink = CountingSink::new();
        two_scent_baseline(&g, &TemporalCycleOptions::with_window(100), &sink);
        assert_eq!(sink.count(), 1);
    }

    #[test]
    fn non_increasing_timestamps_are_rejected() {
        // Triangle with timestamps (1, 3, 2) in traversal order: no rotation
        // of the cycle has strictly increasing timestamps, so it is a simple
        // cycle but not a temporal one.
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 2, 3)
            .add_edge(2, 0, 2)
            .build();
        let sink = CountingSink::new();
        two_scent_baseline(&g, &TemporalCycleOptions::with_window(100), &sink);
        assert_eq!(sink.count(), 0);

        // A 2-cycle with distinct timestamps, by contrast, can always be
        // rooted at its earlier edge and is therefore temporal.
        let g = GraphBuilder::new()
            .add_edge(0, 1, 5)
            .add_edge(1, 0, 3)
            .build();
        let sink = CountingSink::new();
        two_scent_baseline(&g, &TemporalCycleOptions::with_window(100), &sink);
        assert_eq!(sink.count(), 1);
    }

    #[test]
    fn window_constraint_limits_cycles() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 0)
            .add_edge(1, 2, 10)
            .add_edge(2, 0, 20)
            .build();
        let tight = CountingSink::new();
        two_scent_baseline(&g, &TemporalCycleOptions::with_window(15), &tight);
        assert_eq!(tight.count(), 0);
        let wide = CountingSink::new();
        two_scent_baseline(&g, &TemporalCycleOptions::with_window(20), &wide);
        assert_eq!(wide.count(), 1);
    }

    #[test]
    fn equal_timestamps_do_not_chain() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 5)
            .add_edge(1, 2, 5)
            .add_edge(2, 0, 6)
            .build();
        let sink = CountingSink::new();
        two_scent_baseline(&g, &TemporalCycleOptions::with_window(100), &sink);
        assert_eq!(sink.count(), 0);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..8 {
            let g = generators::uniform_temporal(RandomTemporalConfig {
                num_vertices: 12,
                num_edges: 60,
                time_span: 40,
                seed: 500 + seed,
            });
            for delta in [10, 25, 60] {
                let sink = CollectingSink::new();
                two_scent_baseline(&g, &TemporalCycleOptions::with_window(delta), &sink);
                let expected = oracle_temporal(&g, delta);
                assert_eq!(
                    sink.canonical_cycles(),
                    expected,
                    "seed {seed} delta {delta}"
                );
            }
        }
    }

    #[test]
    fn reported_cycles_are_temporal_and_within_window() {
        let g = generators::power_law_temporal(RandomTemporalConfig {
            num_vertices: 60,
            num_edges: 300,
            time_span: 200,
            seed: 9,
        });
        let delta = 80;
        let sink = CollectingSink::new();
        two_scent_baseline(&g, &TemporalCycleOptions::with_window(delta), &sink);
        for c in sink.canonical_cycles() {
            c.validate(&g).expect("valid cycle");
            assert!(c.is_temporal(&g), "timestamps must strictly increase");
            assert!(c.time_span(&g) <= delta);
        }
    }

    #[test]
    fn planted_transaction_rings_are_found() {
        let cfg = TransactionRingConfig {
            num_accounts: 200,
            background_edges: 400,
            num_rings: 8,
            ring_len: (3, 5),
            time_span: 1_000_000,
            ring_span: 2_000,
            seed: 21,
        };
        let (g, planted) = generators::transaction_rings(cfg);
        let sink = CountingSink::new();
        two_scent_baseline(&g, &TemporalCycleOptions::with_window(cfg.ring_span), &sink);
        assert!(
            sink.count() >= planted as u64,
            "expected at least {planted} planted rings, found {}",
            sink.count()
        );
    }

    #[test]
    fn max_len_constraint() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 0, 2)
            .add_edge(1, 2, 3)
            .add_edge(2, 0, 4)
            .build();
        let all = CountingSink::new();
        two_scent_baseline(&g, &TemporalCycleOptions::with_window(100), &all);
        assert_eq!(all.count(), 2);
        let short = CountingSink::new();
        two_scent_baseline(
            &g,
            &TemporalCycleOptions::with_window(100).max_len(2),
            &short,
        );
        assert_eq!(short.count(), 1);
    }

    /// Every one-shot temporal query — each granularity, with and without
    /// the Read–Tarjan completion probe — reports the baseline's cycles.
    #[test]
    fn baseline_matches_every_engine_configuration() {
        let g = generators::uniform_temporal(RandomTemporalConfig {
            num_vertices: 25,
            num_edges: 150,
            time_span: 80,
            seed: 4242,
        });
        let opts = TemporalCycleOptions::with_window(30);
        let a = CollectingSink::new();
        two_scent_baseline(&g, &opts, &a);
        assert!(!a.canonical_cycles().is_empty());
        let engine = Engine::with_threads(2);
        for granularity in [
            Granularity::Sequential,
            Granularity::CoarseGrained,
            Granularity::FineGrained,
        ] {
            for algorithm in [Algorithm::Johnson, Algorithm::ReadTarjan] {
                let query = Query::temporal()
                    .window(30)
                    .granularity(granularity)
                    .algorithm(algorithm)
                    .collect(CollectMode::Collect);
                let cycles = engine.run(&query, &g).unwrap().cycles.unwrap();
                assert_eq!(
                    a.canonical_cycles(),
                    crate::testing::canonicalized(cycles),
                    "{granularity:?} {algorithm:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_temporal_edges_counted_separately() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 0, 5)
            .add_edge(1, 0, 7)
            .build();
        let sink = CountingSink::new();
        two_scent_baseline(&g, &TemporalCycleOptions::with_window(100), &sink);
        assert_eq!(sink.count(), 2);
    }
}
