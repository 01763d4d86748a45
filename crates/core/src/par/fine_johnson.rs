//! The fine-grained parallel Johnson algorithm (§5).
//!
//! The sequential Johnson recursion is re-expressed with an explicit stack of
//! *frames*; each frame records the vertex it explores and the admissible
//! branches (outgoing edges) that have not been claimed yet. The worker that
//! owns a rooted search claims branches from its deepest frame — exactly the
//! depth-first order of the sequential algorithm — while **idle workers steal
//! a branch from the shallowest frame** of any registered search:
//!
//! 1. the thief locks the victim search, claims one unexplored branch, and
//!    copies the victim's `Π` (path), `Blk` (blocked set) and `Blist`
//!    (unblock lists);
//! 2. it truncates the copied path back to the frame the branch belongs to
//!    and invokes the **recursive unblocking procedure** for every removed
//!    vertex — the copy-on-steal state reconstruction of §5 — so that blocked
//!    vertices discovered by the victim *after* the branch was created can
//!    still be reused when they remain valid for the shorter path;
//! 3. it then continues as an independent search (registered for further
//!    stealing), with its own copies of the data structures.
//!
//! When the victim later backtracks over a frame that lost branches to
//! thieves, it conservatively treats the stolen subtrees as if they had found
//! a cycle, i.e. it unblocks the frame vertex. Unblocking too eagerly can only
//! cost pruning (this is the source of the algorithm's work inefficiency,
//! Theorem 5.1 — up to `min(s, p·c)` vertex visits); it can never cause a
//! cycle to be missed, and an explicit on-path check guarantees that only
//! simple cycles are reported. Every branch is claimed by exactly one worker,
//! so no cycle is reported twice.
//!
//! All mutations of a search's shared state happen under that search's mutex.
//! The critical sections are dominated by the recursive unblocking procedure
//! and by the copy performed on steal — which is why the paper observes lock
//! contention for graphs with very low cycle-to-vertex ratios (§8, the AML
//! outlier), an effect the `ablations` benchmark reproduces.

use crate::cycle::{CycleSink, HaltingSink};
use crate::metrics::{RunStats, WorkMetrics};
use crate::options::SimpleCycleOptions;
use crate::seq::{handle_self_loop_root, RootScratch};
use crate::union::{UnionQuery, UnionView};
use crate::util::{fx_map, fx_set, FxHashMap, FxHashSet};
use crate::{Algorithm, Granularity};
use parking_lot::Mutex;
use pce_graph::{EdgeId, TemporalGraph, TimeWindow, VertexId};
use pce_sched::{StealLoop, ThreadPool};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One recursion level of a fine-grained Johnson search.
#[derive(Debug)]
struct Frame {
    /// The vertex this frame explores (the tip of the path at this level).
    vertex: VertexId,
    /// Admissible branches (edge, target) computed when the frame was pushed.
    branches: Vec<(EdgeId, VertexId)>,
    /// Index of the next branch to claim.
    next: usize,
    /// Whether any branch explored *by the owner* found a cycle.
    found: bool,
    /// Whether any branch of this frame was stolen by another worker.
    stolen: bool,
}

impl Frame {
    fn unclaimed(&self) -> usize {
        self.branches.len() - self.next
    }
}

/// The mutable state of one active rooted (or stolen) search.
struct SearchCore {
    root: EdgeId,
    v0: VertexId,
    window: TimeWindow,
    union: Arc<UnionView>,
    use_blocking: bool,
    /// Path length when the search started (2 for root searches, the rolled
    /// back length for stolen searches); `frames[i]` corresponds to a path of
    /// `base_path_len + i` vertices.
    base_path_len: usize,
    path: Vec<VertexId>,
    path_edges: Vec<EdgeId>,
    on_path: FxHashSet<VertexId>,
    blocked: FxHashSet<VertexId>,
    blist: FxHashMap<VertexId, FxHashSet<VertexId>>,
    frames: Vec<Frame>,
    /// Total unclaimed branches across all frames (steal-availability hint).
    unclaimed: usize,
}

/// A registered, stealable search.
struct SharedSearch {
    core: Mutex<SearchCore>,
    stealable: AtomicBool,
}

/// The work package a thief takes away from a victim.
struct StolenBranch {
    root: EdgeId,
    v0: VertexId,
    window: TimeWindow,
    union: Arc<UnionView>,
    use_blocking: bool,
    path: Vec<VertexId>,
    path_edges: Vec<EdgeId>,
    on_path: FxHashSet<VertexId>,
    blocked: FxHashSet<VertexId>,
    blist: FxHashMap<VertexId, FxHashSet<VertexId>>,
    frame_vertex: VertexId,
    branch: (EdgeId, VertexId),
}

/// Computes the admissible branches of `v` for the given rooted search and
/// records one edge visit per admissible candidate (the same accounting as
/// the sequential Johnson implementation).
#[allow(clippy::too_many_arguments)]
fn admissible_branches(
    graph: &TemporalGraph,
    v: VertexId,
    root: EdgeId,
    v0: VertexId,
    window: TimeWindow,
    union: &UnionView,
    metrics: &WorkMetrics,
    worker: usize,
) -> Vec<(EdgeId, VertexId)> {
    let mut branches = Vec::new();
    for &entry in graph.out_edges_in_window(v, window) {
        if entry.edge <= root {
            continue;
        }
        metrics.edge_visit(worker);
        if entry.neighbor == v0 || union.in_union(entry.neighbor) {
            branches.push((entry.edge, entry.neighbor));
        }
    }
    branches
}

/// The recursive unblocking procedure over owned blocked/Blist maps.
fn recursive_unblock(
    blocked: &mut FxHashSet<VertexId>,
    blist: &mut FxHashMap<VertexId, FxHashSet<VertexId>>,
    v: VertexId,
    metrics: &WorkMetrics,
    worker: usize,
) {
    if !blocked.remove(&v) {
        return;
    }
    metrics.unblock_op(worker);
    if let Some(list) = blist.remove(&v) {
        for u in list {
            recursive_unblock(blocked, blist, u, metrics, worker);
        }
    }
}

impl SharedSearch {
    fn new_root(
        graph: &TemporalGraph,
        root: EdgeId,
        opts: &SimpleCycleOptions,
        union: Arc<UnionView>,
        metrics: &WorkMetrics,
        worker: usize,
    ) -> Self {
        let e0 = graph.edge(root);
        let window = TimeWindow::from_start(e0.ts, opts.effective_delta());
        let mut on_path = fx_set();
        on_path.insert(e0.src);
        on_path.insert(e0.dst);
        let mut blocked = fx_set();
        blocked.insert(e0.src);
        blocked.insert(e0.dst);
        let branches =
            admissible_branches(graph, e0.dst, root, e0.src, window, &union, metrics, worker);
        let unclaimed = branches.len();
        let core = SearchCore {
            root,
            v0: e0.src,
            window,
            union,
            use_blocking: opts.max_len.is_none(),
            base_path_len: 2,
            path: vec![e0.src, e0.dst],
            path_edges: vec![root],
            on_path,
            blocked,
            blist: fx_map(),
            frames: vec![Frame {
                vertex: e0.dst,
                branches,
                next: 0,
                found: false,
                stolen: false,
            }],
            unclaimed,
        };
        Self {
            stealable: AtomicBool::new(unclaimed > 0),
            core: Mutex::new(core),
        }
    }

    fn from_stolen(stolen: StolenBranch) -> Self {
        let base_path_len = stolen.path.len();
        let core = SearchCore {
            root: stolen.root,
            v0: stolen.v0,
            window: stolen.window,
            union: stolen.union,
            use_blocking: stolen.use_blocking,
            base_path_len,
            path: stolen.path,
            path_edges: stolen.path_edges,
            on_path: stolen.on_path,
            blocked: stolen.blocked,
            blist: stolen.blist,
            frames: vec![Frame {
                vertex: stolen.frame_vertex,
                branches: vec![stolen.branch],
                next: 0,
                found: false,
                stolen: false,
            }],
            unclaimed: 1,
        };
        Self {
            stealable: AtomicBool::new(false),
            core: Mutex::new(core),
        }
    }

    /// Attempts to split one branch off this search (called by idle workers
    /// through the steal registry). Counts the thief's search as
    /// outstanding in `sched` before releasing the victim.
    fn try_steal(
        &self,
        sched: &StealLoop<SharedSearch>,
        metrics: &WorkMetrics,
        worker: usize,
    ) -> Option<StolenBranch> {
        if !self.stealable.load(Ordering::Relaxed) {
            return None;
        }
        let mut core = self.core.lock();
        if core.unclaimed == 0 {
            self.stealable.store(false, Ordering::Relaxed);
            return None;
        }
        // Steal from the shallowest frame: its subtree is the largest and
        // rolling the path back to it preserves the most blocked-vertex
        // information for the thief.
        let depth = core
            .frames
            .iter()
            .position(|f| f.unclaimed() > 0)
            .expect("unclaimed > 0 implies a frame with branches");
        let frame_path_len = core.base_path_len + depth;
        let frame = &mut core.frames[depth];
        let branch = frame.branches[frame.next];
        frame.next += 1;
        frame.stolen = true;
        let frame_vertex = frame.vertex;
        core.unclaimed -= 1;
        if core.unclaimed == 0 {
            self.stealable.store(false, Ordering::Relaxed);
        }
        sched.count_split();

        // Copy-on-steal: copy Π, Blk and Blist, roll the path back to the
        // frame the stolen branch belongs to and recursively unblock the
        // removed vertices.
        metrics.copy_event(worker);
        let path = core.path[..frame_path_len].to_vec();
        let path_edges = core.path_edges[..frame_path_len - 1].to_vec();
        let on_path: FxHashSet<VertexId> = path.iter().copied().collect();
        let mut blocked = core.blocked.clone();
        let mut blist = core.blist.clone();
        for &removed in &core.path[frame_path_len..] {
            recursive_unblock(&mut blocked, &mut blist, removed, metrics, worker);
        }

        Some(StolenBranch {
            root: core.root,
            v0: core.v0,
            window: core.window,
            union: Arc::clone(&core.union),
            use_blocking: core.use_blocking,
            path,
            path_edges,
            on_path,
            blocked,
            blist,
            frame_vertex,
            branch,
        })
    }
}

/// Runs a search (rooted or stolen) to completion on the calling worker,
/// exposing unclaimed branches to thieves throughout. Winds down early (with
/// branches unexplored) once the sink stops the run.
fn run_search<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &SimpleCycleOptions,
    sink: &HaltingSink<'_, S>,
    metrics: &WorkMetrics,
    worker: usize,
    shared: &SharedSearch,
) {
    loop {
        if sink.stopped() {
            break;
        }
        let mut core = shared.core.lock();
        let Some(frame) = core.frames.last_mut() else {
            break;
        };
        if frame.next < frame.branches.len() {
            // Claim the next branch of the deepest frame (sequential
            // depth-first order for the owning worker).
            let (edge, w) = frame.branches[frame.next];
            frame.next += 1;
            core.unclaimed -= 1;
            if w == core.v0 {
                if opts.len_ok(core.path_edges.len() + 1) {
                    core.path_edges.push(edge);
                    sink.push(&core.path, &core.path_edges);
                    core.path_edges.pop();
                    core.frames.last_mut().expect("frame exists").found = true;
                }
                shared
                    .stealable
                    .store(core.unclaimed > 0, Ordering::Relaxed);
                continue;
            }
            if core.on_path.contains(&w)
                || (core.use_blocking && core.blocked.contains(&w))
                || !opts.len_ok(core.path_edges.len() + 2)
            {
                shared
                    .stealable
                    .store(core.unclaimed > 0, Ordering::Relaxed);
                continue;
            }
            // Descend into w.
            metrics.recursive_call(worker);
            core.path.push(w);
            core.path_edges.push(edge);
            core.on_path.insert(w);
            if core.use_blocking {
                core.blocked.insert(w);
            }
            let branches = admissible_branches(
                graph,
                w,
                core.root,
                core.v0,
                core.window,
                &core.union,
                metrics,
                worker,
            );
            core.unclaimed += branches.len();
            core.frames.push(Frame {
                vertex: w,
                branches,
                next: 0,
                found: false,
                stolen: false,
            });
            shared
                .stealable
                .store(core.unclaimed > 0, Ordering::Relaxed);
        } else {
            // Frame exhausted: backtrack.
            let frame = core.frames.pop().expect("frame exists");
            if core.frames.is_empty() {
                break;
            }
            let v = frame.vertex;
            core.path.pop();
            core.path_edges.pop();
            core.on_path.remove(&v);
            // Treat stolen subtrees as if they had found a cycle: unblocking
            // too much only costs pruning efficiency, never correctness.
            let found = frame.found || frame.stolen;
            if core.use_blocking {
                if found {
                    let mut blocked = std::mem::take(&mut core.blocked);
                    let mut blist = std::mem::take(&mut core.blist);
                    recursive_unblock(&mut blocked, &mut blist, v, metrics, worker);
                    core.blocked = blocked;
                    core.blist = blist;
                } else {
                    for &(_, w) in &frame.branches {
                        core.blist.entry(w).or_default().insert(v);
                    }
                }
            }
            if found {
                core.frames.last_mut().expect("parent exists").found = true;
            }
        }
    }
}

/// Fine-grained parallel Johnson enumeration of all (window-constrained)
/// simple cycles.
pub fn fine_johnson_simple<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &SimpleCycleOptions,
    sink: &S,
    pool: &ThreadPool,
) -> RunStats {
    let threads = pool.num_threads();
    let metrics = WorkMetrics::new(threads);
    let start = Instant::now();
    let sched: StealLoop<SharedSearch> = StealLoop::new(graph.num_edges());
    let sink = HaltingSink::new(sink);

    pool.scope(|scope| {
        for _ in 0..threads {
            let sched = &sched;
            let metrics = &metrics;
            let sink = &sink;
            scope.spawn(move |_, ctx| {
                let worker = ctx.worker_id();
                let mut scratch = RootScratch::new(graph.num_vertices());
                let run = |shared: SharedSearch| {
                    let shared = Arc::new(shared);
                    let _guard = sched.register(Arc::clone(&shared));
                    run_search(graph, opts, sink, metrics, worker, &shared);
                };
                sched.run_worker(
                    &mut scratch,
                    || sink.stopped(),
                    |scratch, root| {
                        let root = root as EdgeId;
                        let prep = Instant::now();
                        if handle_self_loop_root(graph, root, opts, sink) {
                            return;
                        }
                        let e0 = graph.edge(root);
                        let window = TimeWindow::from_start(e0.ts, opts.effective_delta());
                        if scratch.union.compute_simple(graph, root, window) {
                            metrics.root_processed(worker);
                            let union = Arc::new(UnionView::from_simple(&scratch.union));
                            run(SharedSearch::new_root(
                                graph, root, opts, union, metrics, worker,
                            ));
                        }
                        metrics.add_busy(worker, prep.elapsed());
                    },
                    |_, victim| victim.try_steal(sched, metrics, worker),
                    |_, stolen| {
                        let t0 = Instant::now();
                        metrics.steal_event(worker);
                        run(SharedSearch::from_stolen(stolen));
                        metrics.add_busy(worker, t0.elapsed());
                    },
                );
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
    .tagged(Algorithm::Johnson, Granularity::FineGrained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{CollectingSink, CountingSink};
    use crate::seq::johnson::johnson_simple;
    use pce_graph::generators::{self, RandomTemporalConfig};

    #[test]
    fn matches_sequential_on_small_graphs() {
        for n in 2..=9 {
            let g = generators::fig4a_exponential_cycles(n);
            let sink = CountingSink::new();
            fine_johnson_simple(
                &g,
                &SimpleCycleOptions::unconstrained(),
                &sink,
                &ThreadPool::new(4),
            );
            assert_eq!(sink.count(), generators::fig4a_cycle_count(n), "n={n}");
        }
    }

    #[test]
    fn matches_sequential_on_random_graphs() {
        for seed in 0..6 {
            let g = generators::uniform_temporal(RandomTemporalConfig {
                num_vertices: 16,
                num_edges: 70,
                time_span: 50,
                seed: 900 + seed,
            });
            let opts = SimpleCycleOptions::with_window(25);
            let seq = CollectingSink::new();
            johnson_simple(&g, &opts, &seq);
            let par = CollectingSink::new();
            fine_johnson_simple(&g, &opts, &par, &ThreadPool::new(4));
            assert_eq!(
                seq.canonical_cycles(),
                par.canonical_cycles(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn fig4a_work_is_spread_across_workers() {
        // All 2^(n-2) cycles hang off a single root edge; with 4 workers the
        // fine-grained algorithm must steal branches of that single search.
        // The graph is sized so the search takes long enough for thieves to
        // arrive even on a fast machine.
        let g = generators::fig4a_exponential_cycles(16);
        let sink = CountingSink::new();
        let stats = fine_johnson_simple(
            &g,
            &SimpleCycleOptions::unconstrained(),
            &sink,
            &ThreadPool::new(4),
        );
        assert_eq!(sink.count(), generators::fig4a_cycle_count(16));
        eprintln!(
            "fig4a steals={} copies={} per-worker calls={:?}",
            stats.work.total_steals(),
            stats.work.total_copies(),
            stats
                .work
                .workers
                .iter()
                .map(|w| w.recursive_calls)
                .collect::<Vec<_>>()
        );
        assert!(stats.work.total_steals() > 0, "steals should have happened");
        let active_workers = stats
            .work
            .workers
            .iter()
            .filter(|w| w.recursive_calls > 0)
            .count();
        assert!(
            active_workers > 1,
            "fine-grained Johnson should use several workers on Figure 4a"
        );
    }

    #[test]
    fn results_independent_of_thread_count() {
        let g = generators::power_law_temporal(RandomTemporalConfig {
            num_vertices: 50,
            num_edges: 160,
            time_span: 120,
            seed: 55,
        });
        let opts = SimpleCycleOptions::with_window(18);
        let reference = CollectingSink::new();
        johnson_simple(&g, &opts, &reference);
        for threads in [1, 2, 4, 8] {
            let sink = CollectingSink::new();
            fine_johnson_simple(&g, &opts, &sink, &ThreadPool::new(threads));
            assert_eq!(
                reference.canonical_cycles(),
                sink.canonical_cycles(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn max_len_constraint_matches_sequential() {
        let g = generators::complete_digraph(5);
        for max_len in 2..=4 {
            let opts = SimpleCycleOptions::unconstrained().max_len(max_len);
            let seq = CountingSink::new();
            johnson_simple(&g, &opts, &seq);
            let par = CountingSink::new();
            fine_johnson_simple(&g, &opts, &par, &ThreadPool::new(3));
            assert_eq!(seq.count(), par.count(), "max_len={max_len}");
        }
    }

    #[test]
    fn stress_with_many_threads_and_tiny_tasks() {
        // Many tiny rooted searches with aggressive stealing opportunities:
        // checks that the termination protocol and the copy-on-steal state
        // reconstruction never lose or duplicate cycles.
        let g = generators::uniform_temporal(RandomTemporalConfig {
            num_vertices: 30,
            num_edges: 130,
            time_span: 70,
            seed: 321,
        });
        let opts = SimpleCycleOptions::with_window(14);
        let reference = CollectingSink::new();
        johnson_simple(&g, &opts, &reference);
        for _ in 0..3 {
            let sink = CollectingSink::new();
            fine_johnson_simple(&g, &opts, &sink, &ThreadPool::new(8));
            assert_eq!(reference.canonical_cycles(), sink.canonical_cycles());
        }
    }

    /// A panicking sink must fail the run, not hang it (see the delta
    /// driver's `fine_sink_panic_propagates`).
    #[test]
    fn sink_panic_propagates() {
        struct Exploding;
        impl CycleSink for Exploding {
            fn push(&self, _: &[VertexId], _: &[EdgeId]) -> std::ops::ControlFlow<()> {
                panic!("sink exploded");
            }

            fn count(&self) -> u64 {
                0
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            // One cycle: exactly one worker panics, the others stay idle.
            let g = generators::directed_cycle(3);
            let pool = ThreadPool::new(4);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fine_johnson_simple(&g, &SimpleCycleOptions::unconstrained(), &Exploding, &pool)
            }));
            let _ = tx.send(result.is_err());
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the run hung after its sink panicked");
        assert!(panicked);
    }

    #[test]
    fn acyclic_graph_terminates_quickly() {
        let g = generators::directed_path(50);
        let sink = CountingSink::new();
        let stats = fine_johnson_simple(
            &g,
            &SimpleCycleOptions::unconstrained(),
            &sink,
            &ThreadPool::new(4),
        );
        assert_eq!(stats.cycles, 0);
    }
}
