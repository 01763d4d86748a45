//! Fine-grained parallel temporal-cycle enumeration (§7).
//!
//! The temporal searches are built on the scalable per-root preprocessing
//! (cycle-union + static closing times), which makes their per-call pruning
//! state read-only; a recursive call therefore only needs a private copy of
//! its path, and every call can be executed as an independent task — the
//! temporal analogue of the fine-grained decomposition of §5/§6.
//!
//! Two task-spawning disciplines are provided, mirroring the two algorithm
//! families the paper evaluates on temporal graphs:
//!
//! * [`fine_temporal_johnson`] — a child task is spawned for every admissible
//!   branch (the Johnson-style decomposition: claim first, discover dead ends
//!   as you go).
//! * [`fine_temporal_read_tarjan`] — before spawning a child for a branch, a
//!   depth-first probe verifies that the branch can still be completed into a
//!   cycle (the Read-Tarjan-style "path extension must exist" discipline).
//!   This performs more edge visits — the paper reports ~47% more for the
//!   Read-Tarjan family — but never schedules a task that cannot produce a
//!   cycle.

use crate::cycle::{CycleSink, HaltingSink};
use crate::metrics::{RunStats, WorkMetrics};
use crate::options::TemporalCycleOptions;
use crate::seq::RootScratch;
use crate::union::{UnionQuery, UnionView};
use crate::util::{fx_set, FxHashSet};
use crate::{Algorithm, Granularity};
use pce_graph::{EdgeId, TemporalGraph, TimeWindow, Timestamp, VertexId};
use pce_sched::{DynamicCounter, Scope, ThreadPool, WorkerCtx};
use std::sync::Arc;
use std::time::Instant;

/// Which fine-grained spawning discipline to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemporalStyle {
    /// Spawn a task per admissible branch (Johnson-style).
    Johnson,
    /// Probe for a feasible completion before spawning (Read-Tarjan-style).
    ReadTarjan,
}

struct FineTemporalShared<'a, S> {
    graph: &'a TemporalGraph,
    sink: &'a HaltingSink<'a, S>,
    metrics: &'a WorkMetrics,
    opts: &'a TemporalCycleOptions,
    style: TemporalStyle,
}

/// One task: extend the given temporal path from its last vertex.
struct TemporalTask {
    root: EdgeId,
    v0: VertexId,
    t_end: Timestamp,
    union: Arc<UnionView>,
    path: Vec<VertexId>,
    path_edges: Vec<EdgeId>,
    on_path: FxHashSet<VertexId>,
    arrival: Timestamp,
}

/// Depth-first probe: does a temporal path from `start` (arriving at
/// `arrival`) back to `v0` exist that avoids `on_path`? Uses the static
/// closing-time bound for pruning; visited dead ends are memoised in a local
/// set for the duration of the probe.
#[allow(clippy::too_many_arguments)]
fn has_completion<S: CycleSink>(
    shared: &FineTemporalShared<'_, S>,
    worker: usize,
    union: &UnionView,
    v0: VertexId,
    t_end: Timestamp,
    on_path: &FxHashSet<VertexId>,
    start: VertexId,
    arrival: Timestamp,
) -> bool {
    let mut stack: Vec<(VertexId, Timestamp)> = vec![(start, arrival)];
    let mut seen: FxHashSet<(VertexId, Timestamp)> = fx_set();
    seen.insert((start, arrival));
    while let Some((v, t)) = stack.pop() {
        let window = TimeWindow::new(t.saturating_add(1), t_end);
        for &entry in shared.graph.out_edges_in_window(v, window) {
            shared.metrics.edge_visit(worker);
            let w = entry.neighbor;
            if w == v0 {
                return true;
            }
            if on_path.contains(&w) || !union.in_union(w) || !union.can_close_after(w, entry.ts) {
                continue;
            }
            if seen.insert((w, entry.ts)) {
                stack.push((w, entry.ts));
            }
        }
    }
    false
}

fn execute_task<'scope, S: CycleSink>(
    shared: &'scope FineTemporalShared<'scope, S>,
    task: TemporalTask,
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
    shared.metrics.recursive_call(worker);
    let v = *task.path.last().expect("path never empty");
    let window = TimeWindow::new(task.arrival.saturating_add(1), task.t_end);
    for &entry in shared.graph.out_edges_in_window(v, window) {
        if shared.sink.stopped() {
            break;
        }
        shared.metrics.edge_visit(worker);
        let w = entry.neighbor;
        if w == task.v0 {
            if shared.opts.len_ok(task.path_edges.len() + 1) {
                let mut edges = task.path_edges.clone();
                edges.push(entry.edge);
                shared.sink.push(&task.path, &edges);
            }
            continue;
        }
        if task.on_path.contains(&w)
            || !task.union.in_union(w)
            || !task.union.can_close_after(w, entry.ts)
            || !shared.opts.len_ok(task.path_edges.len() + 2)
        {
            continue;
        }
        if shared.style == TemporalStyle::ReadTarjan {
            // Read-Tarjan discipline: only descend when a completion exists.
            let mut probe_avoid = task.on_path.clone();
            probe_avoid.insert(w);
            if !has_completion(
                shared,
                worker,
                &task.union,
                task.v0,
                task.t_end,
                &probe_avoid,
                w,
                entry.ts,
            ) {
                continue;
            }
        }
        // Spawn the child call as an independent task with its own copies.
        shared.metrics.copy_event(worker);
        let mut child_path = task.path.clone();
        let mut child_edges = task.path_edges.clone();
        let mut child_on_path = task.on_path.clone();
        child_path.push(w);
        child_edges.push(entry.edge);
        child_on_path.insert(w);
        let child = TemporalTask {
            root: task.root,
            v0: task.v0,
            t_end: task.t_end,
            union: Arc::clone(&task.union),
            path: child_path,
            path_edges: child_edges,
            on_path: child_on_path,
            arrival: entry.ts,
        };
        ctx.spawn(scope, move |scope, ctx| {
            execute_task(shared, child, scope, ctx);
        });
    }
    shared.metrics.add_busy(worker, start.elapsed());
}

fn run_fine_temporal<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &TemporalCycleOptions,
    sink: &S,
    pool: &ThreadPool,
    style: TemporalStyle,
) -> RunStats {
    let threads = pool.num_threads();
    let metrics = WorkMetrics::new(threads);
    let start = Instant::now();
    let counter = DynamicCounter::new(graph.num_edges(), 1);
    let sink = HaltingSink::new(sink);
    let shared = FineTemporalShared {
        graph,
        sink: &sink,
        metrics: &metrics,
        opts,
        style,
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
                    let e0 = shared.graph.edge(root);
                    if e0.src == e0.dst {
                        continue;
                    }
                    let prep = Instant::now();
                    if !scratch
                        .union
                        .compute_temporal(shared.graph, root, shared.opts.window_delta)
                    {
                        shared.metrics.add_busy(worker, prep.elapsed());
                        continue;
                    }
                    shared.metrics.root_processed(worker);
                    let union = Arc::new(UnionView::from_temporal(&scratch.union));
                    shared.metrics.add_busy(worker, prep.elapsed());
                    let mut on_path = fx_set();
                    on_path.insert(e0.src);
                    on_path.insert(e0.dst);
                    let task = TemporalTask {
                        root,
                        v0: e0.src,
                        t_end: e0.ts.saturating_add(shared.opts.window_delta),
                        union,
                        path: vec![e0.src, e0.dst],
                        path_edges: vec![root],
                        on_path,
                        arrival: e0.ts,
                    };
                    execute_task(shared, task, scope, ctx);
                }
            });
        }
    });

    let algorithm = match style {
        TemporalStyle::Johnson => Algorithm::Johnson,
        TemporalStyle::ReadTarjan => Algorithm::ReadTarjan,
    };
    RunStats {
        cycles: sink.count(),
        wall_secs: start.elapsed().as_secs_f64(),
        work: metrics.snapshot(),
        threads,
        ..RunStats::default()
    }
    .tagged(algorithm, Granularity::FineGrained)
}

/// Fine-grained parallel temporal-cycle enumeration, Johnson-style task
/// decomposition.
pub fn fine_temporal_johnson<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &TemporalCycleOptions,
    sink: &S,
    pool: &ThreadPool,
) -> RunStats {
    run_fine_temporal(graph, opts, sink, pool, TemporalStyle::Johnson)
}

/// Fine-grained parallel temporal-cycle enumeration, Read-Tarjan-style task
/// decomposition (probe before descending).
pub fn fine_temporal_read_tarjan<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &TemporalCycleOptions,
    sink: &S,
    pool: &ThreadPool,
) -> RunStats {
    run_fine_temporal(graph, opts, sink, pool, TemporalStyle::ReadTarjan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{CollectingSink, CountingSink};
    use crate::seq::temporal::temporal_simple;
    use pce_graph::generators::{self, RandomTemporalConfig, TransactionRingConfig};

    #[test]
    fn johnson_style_matches_sequential() {
        let g = generators::uniform_temporal(RandomTemporalConfig {
            num_vertices: 25,
            num_edges: 160,
            time_span: 90,
            seed: 31,
        });
        let opts = TemporalCycleOptions::with_window(40);
        let seq = CollectingSink::new();
        temporal_simple(&g, &opts, &seq);
        let par = CollectingSink::new();
        fine_temporal_johnson(&g, &opts, &par, &ThreadPool::new(4));
        assert_eq!(seq.canonical_cycles(), par.canonical_cycles());
    }

    #[test]
    fn read_tarjan_style_matches_sequential() {
        let g = generators::power_law_temporal(RandomTemporalConfig {
            num_vertices: 40,
            num_edges: 220,
            time_span: 100,
            seed: 32,
        });
        let opts = TemporalCycleOptions::with_window(50);
        let seq = CollectingSink::new();
        temporal_simple(&g, &opts, &seq);
        let par = CollectingSink::new();
        fine_temporal_read_tarjan(&g, &opts, &par, &ThreadPool::new(4));
        assert_eq!(seq.canonical_cycles(), par.canonical_cycles());
    }

    #[test]
    fn read_tarjan_style_visits_more_edges() {
        let g = generators::uniform_temporal(RandomTemporalConfig {
            num_vertices: 30,
            num_edges: 250,
            time_span: 60,
            seed: 33,
        });
        let opts = TemporalCycleOptions::with_window(40);
        let pool = ThreadPool::new(2);
        let a = CountingSink::new();
        let stats_j = fine_temporal_johnson(&g, &opts, &a, &pool);
        let b = CountingSink::new();
        let stats_rt = fine_temporal_read_tarjan(&g, &opts, &b, &pool);
        assert_eq!(a.count(), b.count());
        assert!(
            stats_rt.work.total_edge_visits() >= stats_j.work.total_edge_visits(),
            "probing discipline should not visit fewer edges"
        );
    }

    #[test]
    fn results_independent_of_thread_count() {
        let (g, _) = generators::transaction_rings(TransactionRingConfig {
            num_accounts: 150,
            background_edges: 400,
            num_rings: 10,
            ring_len: (3, 5),
            time_span: 500_000,
            ring_span: 3_000,
            seed: 34,
        });
        let opts = TemporalCycleOptions::with_window(3_000);
        let reference = CollectingSink::new();
        temporal_simple(&g, &opts, &reference);
        for threads in [1, 2, 4, 8] {
            let sink = CollectingSink::new();
            fine_temporal_johnson(&g, &opts, &sink, &ThreadPool::new(threads));
            assert_eq!(
                reference.canonical_cycles(),
                sink.canonical_cycles(),
                "threads={threads}"
            );
        }
    }

    /// Every temporal cycle of this lattice starts with the one earliest edge
    /// `u → w`, so all of the work hangs off a single root and a second
    /// worker only gets any by stealing a spawned task.
    #[test]
    fn single_hot_root_records_steals() {
        let (width, depth) = (2, 11);
        let layer = |l: usize, j: usize| (2 + l * width + j) as VertexId;
        let mut b = pce_graph::GraphBuilder::new();
        b.push_edge(0, 1, 1);
        for j in 0..width {
            b.push_edge(1, layer(0, j), 2);
        }
        for l in 0..depth - 1 {
            for x in 0..width {
                for y in 0..width {
                    b.push_edge(layer(l, x), layer(l + 1, y), l as Timestamp + 3);
                }
            }
        }
        for j in 0..width {
            b.push_edge(layer(depth - 1, j), 0, depth as Timestamp + 2);
        }
        let g = b.build();
        let opts = TemporalCycleOptions::with_window(100);
        let pool = ThreadPool::new(4);
        for style in [TemporalStyle::Johnson, TemporalStyle::ReadTarjan] {
            // Whether a thief is scheduled before the owner drains its deque
            // is up to the OS, so allow a few attempts.
            let stolen = (0..5).any(|_| {
                let sink = CountingSink::new();
                let stats = run_fine_temporal(&g, &opts, &sink, &pool, style);
                assert_eq!(sink.count(), 1 << depth, "{style:?}");
                stats.work.total_steals() > 0
            });
            assert!(stolen, "{style:?}: no steal recorded on a single hot root");
        }
    }

    #[test]
    fn max_len_respected() {
        let g = generators::directed_cycle(6);
        let opts = TemporalCycleOptions::with_window(100).max_len(5);
        let sink = CountingSink::new();
        fine_temporal_johnson(&g, &opts, &sink, &ThreadPool::new(2));
        assert_eq!(sink.count(), 0);
        let opts = TemporalCycleOptions::with_window(100).max_len(6);
        let sink = CountingSink::new();
        fine_temporal_johnson(&g, &opts, &sink, &ThreadPool::new(2));
        assert_eq!(sink.count(), 1);
    }
}
