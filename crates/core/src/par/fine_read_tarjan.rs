//! The fine-grained parallel Read-Tarjan algorithm (§6).
//!
//! Every Read-Tarjan recursive call is executed as an independent task: a
//! child call receives copies of the current path and of its parent's blocked
//! set and never communicates anything back, so the tasks can be scheduled in
//! any order on any worker. Workers claim root edges dynamically; the first
//! call of each root runs on the claiming worker and every spawned child is
//! pushed onto that worker's local deque, from which idle workers steal —
//! which is exactly how the long searches of skewed graphs get spread across
//! the machine.
//!
//! Because the pruning state of the sequential algorithm is already private to
//! each call, the parallel version performs the same `O((n+e)(c+1))` work as
//! the sequential one: it is *work efficient* (Theorem 6.1) as well as
//! scalable (Theorem 6.2).

use crate::cycle::{CycleSink, HaltingSink};
use crate::metrics::{RunStats, WorkMetrics};
use crate::options::SimpleCycleOptions;
use crate::seq::read_tarjan::{rt_call, rt_initial_state, RtCallState, RtContext};
use crate::seq::{handle_self_loop_root, RootScratch};
use crate::union::UnionView;
use crate::{Algorithm, Granularity};
use pce_graph::{EdgeId, TemporalGraph, TimeWindow};
use pce_sched::{DynamicCounter, Scope, ThreadPool, WorkerCtx};
use std::sync::Arc;
use std::time::Instant;

/// Everything a Read-Tarjan task needs besides its own call state; lives on
/// the stack of the enumeration entry point for the duration of the scope.
struct FineRtShared<'a, S> {
    graph: &'a TemporalGraph,
    sink: &'a HaltingSink<'a, S>,
    metrics: &'a WorkMetrics,
    opts: &'a SimpleCycleOptions,
}

/// A unit of work: one Read-Tarjan recursive call for one root edge.
struct FineRtTask {
    root: EdgeId,
    union: Arc<UnionView>,
    state: RtCallState,
}

fn execute_task<'scope, S: CycleSink>(
    shared: &'scope FineRtShared<'scope, S>,
    task: FineRtTask,
    scope: &Scope<'scope>,
    ctx: &WorkerCtx<'_>,
) {
    // A task scheduled after the sink stopped the run returns immediately
    // (and spawns nothing), so the scope drains quickly without deadlock.
    if shared.sink.stopped() {
        return;
    }
    let worker = ctx.worker_id();
    if ctx.stolen() {
        // The pool's deques did the actual theft; record it here, where the
        // migrated task starts executing.
        shared.metrics.steal_event(worker);
    }
    let start = Instant::now();
    let e0 = shared.graph.edge(task.root);
    let rt_ctx = RtContext {
        graph: shared.graph,
        sink: shared.sink,
        metrics: shared.metrics,
        opts: shared.opts,
        union: &*task.union,
        root: task.root,
        v0: e0.src,
        window: TimeWindow::from_start(e0.ts, shared.opts.effective_delta()),
    };
    let root = task.root;
    let union = &task.union;
    rt_call(&rt_ctx, worker, task.state, &mut |child| {
        // Each child call becomes an independently schedulable task. It goes
        // to this worker's local deque: executed depth-first locally unless an
        // idle worker steals it.
        let child_task = FineRtTask {
            root,
            union: Arc::clone(union),
            state: child,
        };
        ctx.spawn(scope, move |scope, ctx| {
            execute_task(shared, child_task, scope, ctx);
        });
    });
    shared.metrics.add_busy(worker, start.elapsed());
}

/// Fine-grained parallel Read-Tarjan enumeration of all (window-constrained)
/// simple cycles.
pub fn fine_read_tarjan_simple<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &SimpleCycleOptions,
    sink: &S,
    pool: &ThreadPool,
) -> RunStats {
    let threads = pool.num_threads();
    let metrics = WorkMetrics::new(threads);
    let start = Instant::now();
    let counter = DynamicCounter::new(graph.num_edges(), 1);
    let sink = HaltingSink::new(sink);
    let shared = FineRtShared {
        graph,
        sink: &sink,
        metrics: &metrics,
        opts,
    };

    pool.scope(|scope| {
        for _ in 0..threads {
            let counter = &counter;
            let shared = &shared;
            scope.spawn(move |scope, ctx| {
                let worker = ctx.worker_id();
                let mut scratch = RootScratch::new(shared.graph.num_vertices());
                while let Some(root) = counter.next() {
                    if shared.sink.stopped() {
                        break;
                    }
                    let root = root as EdgeId;
                    let prep = Instant::now();
                    if handle_self_loop_root(shared.graph, root, shared.opts, shared.sink) {
                        continue;
                    }
                    let e0 = shared.graph.edge(root);
                    let window = TimeWindow::from_start(e0.ts, shared.opts.effective_delta());
                    if !scratch.union.compute_simple(shared.graph, root, window) {
                        shared.metrics.add_busy(worker, prep.elapsed());
                        continue;
                    }
                    shared.metrics.root_processed(worker);
                    let union = Arc::new(UnionView::from_simple(&scratch.union));
                    let rt_ctx = RtContext {
                        graph: shared.graph,
                        sink: shared.sink,
                        metrics: shared.metrics,
                        opts: shared.opts,
                        union: &*union,
                        root,
                        v0: e0.src,
                        window,
                    };
                    let initial = rt_initial_state(&rt_ctx, worker, root);
                    shared.metrics.add_busy(worker, prep.elapsed());
                    if let Some(state) = initial {
                        execute_task(
                            shared,
                            FineRtTask {
                                root,
                                union: Arc::clone(&union),
                                state,
                            },
                            scope,
                            ctx,
                        );
                    }
                }
            });
        }
    });

    RunStats {
        cycles: sink.count(),
        wall_secs: start.elapsed().as_secs_f64(),
        work: metrics.snapshot(),
        threads,
        ..RunStats::default()
    }
    .tagged(Algorithm::ReadTarjan, Granularity::FineGrained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{CollectingSink, CountingSink};
    use crate::seq::johnson::johnson_simple;
    use crate::seq::read_tarjan::read_tarjan_simple;
    use pce_graph::generators::{self, RandomTemporalConfig};

    #[test]
    fn matches_sequential_read_tarjan() {
        let g = generators::uniform_temporal(RandomTemporalConfig {
            num_vertices: 18,
            num_edges: 80,
            time_span: 50,
            seed: 11,
        });
        let opts = SimpleCycleOptions::with_window(30);
        let seq = CollectingSink::new();
        read_tarjan_simple(&g, &opts, &seq);
        let par = CollectingSink::new();
        fine_read_tarjan_simple(&g, &opts, &par, &ThreadPool::new(4));
        assert_eq!(seq.canonical_cycles(), par.canonical_cycles());
    }

    #[test]
    fn fig4a_exponential_cycles_spread_across_workers() {
        // Deflaked: on a 1-core executor the OS may legally run the whole
        // search on one worker before any other thread wakes, so the spread
        // assertion only holds with real parallelism — verify the count and
        // skip the spread check there. On a multicore, a worker can still
        // occasionally drain the task tree before a sibling steals (the
        // search cannot host a rendezvous without changing the algorithm), so
        // the spread assertion gets a handful of attempts; the cycle count is
        // asserted on every run. A spread run must also have recorded the
        // steals that moved the root's tasks to the other workers.
        let g = generators::fig4a_exponential_cycles(12);
        let expected = generators::fig4a_cycle_count(12);
        let single_core = pce_sched::available_parallelism() < 2;
        let attempts = if single_core { 1 } else { 5 };
        let mut last_active = 0;
        for attempt in 0..attempts {
            let sink = CountingSink::new();
            let stats = fine_read_tarjan_simple(
                &g,
                &SimpleCycleOptions::unconstrained(),
                &sink,
                &ThreadPool::new(4),
            );
            assert_eq!(sink.count(), expected, "attempt {attempt}");
            // With 1024 cycles behind a single root edge, fine-grained tasks
            // should spread across workers.
            last_active = stats
                .work
                .workers
                .iter()
                .filter(|w| w.recursive_calls > 0)
                .count();
            if last_active > 1 {
                assert!(stats.work.total_steals() > 0, "attempt {attempt}");
                return;
            }
        }
        if single_core {
            eprintln!("skipping worker-spread assertion: single-core executor");
            return;
        }
        panic!("expected multiple workers to execute tasks in {attempts} runs, got {last_active}");
    }

    #[test]
    fn results_are_independent_of_thread_count() {
        let g = generators::power_law_temporal(RandomTemporalConfig {
            num_vertices: 40,
            num_edges: 140,
            time_span: 90,
            seed: 13,
        });
        let opts = SimpleCycleOptions::with_window(16);
        let reference = CollectingSink::new();
        johnson_simple(&g, &opts, &reference);
        for threads in [1, 2, 4, 8] {
            let sink = CollectingSink::new();
            fine_read_tarjan_simple(&g, &opts, &sink, &ThreadPool::new(threads));
            assert_eq!(
                reference.canonical_cycles(),
                sink.canonical_cycles(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn max_len_constraint_respected() {
        let g = generators::complete_digraph(5);
        let opts = SimpleCycleOptions::unconstrained().max_len(3);
        let seq = CountingSink::new();
        read_tarjan_simple(&g, &opts, &seq);
        let par = CountingSink::new();
        fine_read_tarjan_simple(&g, &opts, &par, &ThreadPool::new(3));
        assert_eq!(seq.count(), par.count());
    }

    #[test]
    fn empty_and_acyclic_graphs() {
        let g = generators::directed_path(20);
        let sink = CountingSink::new();
        let stats = fine_read_tarjan_simple(
            &g,
            &SimpleCycleOptions::unconstrained(),
            &sink,
            &ThreadPool::new(2),
        );
        assert_eq!(stats.cycles, 0);
    }
}
