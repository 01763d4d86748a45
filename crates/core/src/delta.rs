//! Incremental (delta) enumeration: cycles **closed** by newly arrived edges.
//!
//! The batch-rooted dual of the one-shot enumerators in [`crate::seq`] /
//! [`crate::par`]. Those root every cycle at its *minimum* edge in
//! `(timestamp, id)` order and sweep all edges; here a cycle is rooted at its
//! *maximum* edge — the edge whose arrival completes it. Because the maximum
//! edge of a cycle is unique and belongs to exactly one ingest batch,
//! enumerating only the roots of the newest batch reports every cycle exactly
//! once over the lifetime of a stream: no duplicates across batches, nothing
//! missed. With every edge of a graph as a root, the same pass is a one-shot
//! enumeration: [`Engine`](crate::Engine) answers every temporal query that
//! way, at each granularity, for Johnson and (with a completion probe — see
//! [`run`]) Read-Tarjan alike.
//!
//! The search rooted at `e = u → w` (timestamp `t0`) therefore runs
//! *backwards in stream order*: it enumerates simple paths `w → … → u` over
//! edges strictly earlier than `e` in `(timestamp, id)` order, reusing the
//! same per-root machinery as the forward enumerators —
//! [`CycleUnionWorkspace`] pruning via the mirrored
//! [`compute_simple_before`](CycleUnionWorkspace::compute_simple_before) /
//! [`compute_temporal_before`](CycleUnionWorkspace::compute_temporal_before)
//! passes (including the latest-departure closing-time bound for temporal
//! cycles).
//!
//! # One plan, one search, three drivers
//!
//! A pass is described by a [`DeltaPlan`] and executed by [`run`]. The
//! plan's [`DeltaKind`] is the cycle definition (simple or temporal, with
//! its window and length bound); its [`Granularity`] names the driver that
//! spreads the batch's roots over threads. Whatever the driver, every
//! closing root runs the same search: the backward depth-first walk written
//! over an explicit frame stack, as the paper's fine-grained Johnson (§5)
//! writes it. The owner claims entries from its deepest frame — the
//! sequential order — and allocates nothing per call, so one thread does
//! the sequential algorithm's work and no more. The drivers are the
//! one-shot granularities:
//!
//! * [`Granularity::Sequential`] — the calling thread sweeps the roots in
//!   ascending id order;
//! * [`Granularity::CoarseGrained`] — pool workers claim one root at a time
//!   from a dynamic counter (§4): work efficient, but a batch whose cycles
//!   all hang off one hot root collapses to a single worker;
//! * [`Granularity::FineGrained`] — the paper's copy-on-steal (§5): each
//!   closing root's search is registered in a [`StealLoop`], and idle
//!   workers split the shallowest frame's next branch off and copy the path
//!   prefix only then, so even a single-root burst engages all workers. The
//!   per-root pruning state is shared read-only, and with no blocked set a
//!   steal needs no unblock pass.
//!
//! Only the fine driver registers its searches and locks them; the others
//! drain each search on the worker that prepared it.
//!
//! Everything here is generic over [`GraphView`], so the same code serves the
//! immutable [`TemporalGraph`](pce_graph::TemporalGraph) and the streaming
//! [`SlidingWindowGraph`](pce_graph::stream::SlidingWindowGraph).
//!
//! # One pass, many queries
//!
//! Because the search rooted at an edge enumerates a *superset* of every
//! narrower query's results — a cycle that fits a window δ′ ≤ δ, a length
//! bound L′ ≤ L, or the temporal definition is also found by the simple
//! search at (δ, L) rooted at the same maximum edge — a single delta pass at
//! the loosest constraints can serve many standing queries at once, with
//! per-cycle re-checking instead of per-query re-searching. That is exactly
//! what [`MultiStreamingEngine`](crate::streaming::MultiStreamingEngine)
//! does: one union/pruning pass and one search per root at the widest
//! subscribed window, fanned out through per-query filters. The fan-out
//! itself is constraint-indexed (see
//! [`SubscriptionIndex`](crate::streaming::SubscriptionIndex)): because
//! acceptance is *monotone* in the window and length constraints, the
//! subscriptions sort into a frontier each candidate's time-span can
//! binary-search, so the per-cycle re-check costs `O(distinct constraint
//! profiles)` rather than `O(subscriptions)`.
//!
//! # Predicate pushdown
//!
//! Every plan carries a [`CyclePredicate`] whose components are evaluated as
//! early as soundness allows:
//!
//! * the **per-edge** part (amount interval + label filter) is evaluated
//!   *during* traversal: a rejected edge is skipped by the union passes and
//!   by path extension alike, so it never enters scratch state or spawns
//!   work;
//! * the **vertex filter** prunes the same way — a denied vertex is skipped
//!   by the union passes, by path extension, and by root preparation (both
//!   root endpoints are cycle vertices);
//! * the **aggregate** constraints prune via monotone partial bounds: edge
//!   amounts are non-negative, so a partial path whose running total (root
//!   edge included) already exceeds `total_amount_max` can never complete a
//!   satisfying cycle, and under strict amount monotonicity a hop that fails
//!   to escalate past the previous one — or that reaches the closing root's
//!   amount — cuts the branch. The non-monotone parts (the total *minimum*,
//!   which later hops could still reach) are re-checked exactly when a cycle
//!   closes;
//! * **positional** constraints are checked the moment their position is
//!   determined: `FromStart(k)` when the path holds exactly `k` edges (the
//!   prefix is fixed, so the index is final) and `FromEnd(0)` at root
//!   preparation (the root *is* the last reported edge); the remaining
//!   `FromEnd` positions are only decidable — and are checked — at close.
//!
//! Each pruned branch is recorded in the deterministic work counters
//! (`aggregate_prunes`, `positional_prunes`, `vertex_prunes` — see
//! [`crate::metrics::WorkSnapshot`]), which the differential sweeps compare
//! against post-filtered runs. Since a subscription requires its whole
//! predicate on every reported cycle, the streaming engine pushes the *union
//! hull* of its subscriptions' predicates into this shared pass (see
//! [`crate::streaming`]) and re-checks exact per-subscription predicates at
//! fan-out. Pass [`CyclePredicate::pass_all`] for unfiltered enumeration —
//! that case is detected once per pass and adds no per-edge work.
//!
//! # The `floor`
//!
//! Every plan carries a `floor` timestamp: roots below it are skipped and
//! edges below it are never admissible. Pass `Timestamp::MIN` for no floor —
//! what the streaming engine does, since its `delta <= retention` invariant
//! already guarantees every edge a closing root can need is still stored
//! (making reports independent of batch boundaries). A caller with weaker
//! guarantees (say, retention shorter than its query window) can pass an
//! explicit floor to keep results deterministic with respect to what has
//! been physically dropped.

use crate::cycle::{CycleSink, HaltingSink};
use crate::metrics::{RunStats, WorkMetrics};
use crate::options::{SimpleCycleOptions, TemporalCycleOptions};
use crate::seq::RootScratch;
use crate::union::{UnionQuery, UnionView};
use crate::util::{FxHashSet, VertexMarks};
use crate::{Algorithm, Granularity};
use parking_lot::Mutex;
use pce_graph::reach::CycleUnionWorkspace;
use pce_graph::{
    AdjEntry, Amount, CyclePredicate, EdgeId, GraphView, Position, TemporalEdge, TimeWindow,
    Timestamp, VertexFilter, VertexId,
};
use pce_sched::{DynamicCounter, StealLoop, ThreadPool};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The cycle definition a delta pass enumerates, with its constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// Simple cycles: every admissible earlier edge inside the root's
    /// δ-window may continue a path.
    Simple(SimpleCycleOptions),
    /// Temporal cycles: timestamps strictly increase along the path and stay
    /// strictly below the root's.
    Temporal(TemporalCycleOptions),
}

impl DeltaKind {
    #[inline]
    fn len_ok(&self, len: usize) -> bool {
        match self {
            DeltaKind::Simple(o) => o.len_ok(len),
            DeltaKind::Temporal(o) => o.len_ok(len),
        }
    }

    #[inline]
    fn is_temporal(&self) -> bool {
        matches!(self, DeltaKind::Temporal(_))
    }
}

/// The granularity a streaming engine runs one batch of `roots` roots on:
/// the `requested` one on `threads` workers, degraded to sequential when
/// there is nothing to spread. Coarse-grained degrades on single-root
/// batches (one task per root cannot occupy a second worker); the
/// fine-grained driver splits *within* a root, so a single hot root is
/// exactly where it must stay parallel.
pub(crate) fn for_batch(requested: Granularity, threads: usize, roots: usize) -> Granularity {
    if threads <= 1 || roots == 0 || (requested == Granularity::CoarseGrained && roots == 1) {
        Granularity::Sequential
    } else {
        requested
    }
}

/// The number of scratches a run at `granularity` needs on a pool of
/// `threads` workers: one per worker, or one for the sequential sweep.
pub(crate) fn scratches(granularity: Granularity, threads: usize) -> usize {
    if granularity == Granularity::Sequential {
        1
    } else {
        threads
    }
}

/// One delta pass: what to enumerate, on which driver, under which floor
/// and pushed-down predicate. Execute it with [`run`].
#[derive(Debug, Clone, Copy)]
pub struct DeltaPlan<'a> {
    /// The cycle definition and its window / length constraints.
    pub kind: DeltaKind,
    /// The driver that spreads the roots over threads (see the [module
    /// docs](self#one-plan-one-search-three-drivers)).
    pub granularity: Granularity,
    /// Roots below it are skipped and edges below it are never admissible
    /// (see the [module docs](self#the-floor)).
    pub floor: Timestamp,
    /// Pushed into the traversal — union passes, path extension and
    /// aggregate partial bounds alike (see the [module
    /// docs](self#predicate-pushdown)). [`CyclePredicate::pass_all`] for
    /// unfiltered enumeration.
    pub predicate: &'a CyclePredicate,
    /// [`Algorithm::ReadTarjan`] runs Read–Tarjan's completion probe before
    /// a branch is pushed (see [`run`]); any other value runs the plain
    /// Johnson-style search. The run's stats carry the algorithm that ran.
    /// Streams pass [`Algorithm::Johnson`].
    pub algorithm: Algorithm,
}

/// Runs `plan` over the root range `roots` (typically the id range of the
/// newest ingest batch), reporting every cycle whose maximum edge is one of
/// them to `sink`.
///
/// `scratches` are caller-owned and reused across runs, so the per-batch
/// hot path allocates next to nothing (their epoch-stamping makes reuse
/// free). Each must cover `graph.num_vertices()` (see
/// [`RootScratch::ensure_vertices`]); the sequential driver uses the first,
/// the others one per pool worker. `pool` is ignored by
/// [`Granularity::Sequential`] and required by the other drivers.
///
/// Under [`Algorithm::ReadTarjan`] each branch that could continue the path
/// first runs a completion probe: a depth-first walk, over the edges the
/// search itself may take, for a path from the branch's vertex to the
/// root's tail that avoids the current path. A branch without one is not
/// pushed, so no frame — owned or stolen — is ever a dead end; the probe's
/// edges count as edge visits, which is the extra work of the paper's
/// "a path extension must exist" discipline. The probe ignores the length
/// bound and the pushed-down predicate, so it can only let a branch
/// through that the search then prunes, never cut a cycle.
///
/// # Panics
///
/// If a pool driver gets no pool, or there are fewer scratches than the
/// driver needs.
pub fn run<G: GraphView + ?Sized, S: CycleSink>(
    plan: &DeltaPlan<'_>,
    graph: &G,
    roots: Range<EdgeId>,
    sink: &S,
    pool: Option<&ThreadPool>,
    scratches: &mut [RootScratch],
) -> RunStats {
    let start = Instant::now();
    let pool = (plan.granularity != Granularity::Sequential)
        .then(|| pool.expect("the coarse and fine drivers run on a pool"));
    let threads = pool.map_or(1, ThreadPool::num_threads);
    assert!(
        scratches.len() >= self::scratches(plan.granularity, threads),
        "need one scratch per pool worker"
    );
    let metrics = WorkMetrics::new(threads);
    let halting = HaltingSink::new(sink);
    let probe = plan.algorithm == Algorithm::ReadTarjan;
    let pass = Pass {
        graph,
        sink: &halting,
        metrics: &metrics,
        kind: plan.kind,
        floor: plan.floor,
        predicate: plan.predicate,
        push: Pushdown::of(plan.predicate),
        probe,
    };
    match (plan.granularity, pool) {
        (Granularity::CoarseGrained, Some(pool)) => pass.sweep_claimed(roots, pool, scratches),
        (Granularity::FineGrained, Some(pool)) => pass.run_fine(roots, pool, scratches),
        _ => pass.sweep(roots, &mut scratches[0], 0),
    }
    RunStats {
        cycles: sink.count(),
        wall_secs: start.elapsed().as_secs_f64(),
        work: metrics.snapshot(),
        threads,
        ..RunStats::default()
    }
    .tagged(
        if probe {
            Algorithm::ReadTarjan
        } else {
            Algorithm::Johnson
        },
        plan.granularity,
    )
}

/// A sequential simple-cycle pass over `roots` on caller-owned scratch:
/// [`run`] with [`Granularity::Sequential`].
pub fn delta_simple_with_scratch<G: GraphView + ?Sized, S: CycleSink>(
    graph: &G,
    roots: Range<EdgeId>,
    floor: Timestamp,
    opts: &SimpleCycleOptions,
    predicate: &CyclePredicate,
    sink: &S,
    scratch: &mut RootScratch,
) -> RunStats {
    let plan = DeltaPlan {
        kind: DeltaKind::Simple(*opts),
        granularity: Granularity::Sequential,
        floor,
        predicate,
        algorithm: Algorithm::Johnson,
    };
    run(
        &plan,
        graph,
        roots,
        sink,
        None,
        std::slice::from_mut(scratch),
    )
}

/// A sequential temporal-cycle pass over `roots` on caller-owned scratch:
/// [`run`] with [`Granularity::Sequential`].
pub fn delta_temporal_with_scratch<G: GraphView + ?Sized, S: CycleSink>(
    graph: &G,
    roots: Range<EdgeId>,
    floor: Timestamp,
    opts: &TemporalCycleOptions,
    predicate: &CyclePredicate,
    sink: &S,
    scratch: &mut RootScratch,
) -> RunStats {
    let plan = DeltaPlan {
        kind: DeltaKind::Temporal(*opts),
        granularity: Granularity::Sequential,
        floor,
        predicate,
        algorithm: Algorithm::Johnson,
    };
    run(
        &plan,
        graph,
        roots,
        sink,
        None,
        std::slice::from_mut(scratch),
    )
}

/// Predicate-derived pushdown flags, computed once per pass so the per-edge
/// hot path takes its fast paths without re-reading the predicate.
#[derive(Clone, Copy)]
struct Pushdown {
    /// `predicate.edge_predicate().is_pass_all()` — skips the attribute
    /// lookup on the unfiltered hot path.
    pred_all: bool,
    /// Does any pushed-down check need the edge record at all?
    attrs_needed: bool,
    /// `predicate.has_cycle_constraints()` — gates the exact whole-cycle
    /// re-check at close time.
    cycle_check: bool,
    /// Is there a finite total-amount ceiling to prune on?
    check_total: bool,
    /// `predicate.requires_monotone()`.
    monotone: bool,
    /// Any `FromStart` positional constraints to check on the fixed prefix?
    has_from_start: bool,
    /// `*predicate.vertex_filter() == VertexFilter::Any`.
    vf_any: bool,
}

impl Pushdown {
    fn of(predicate: &CyclePredicate) -> Self {
        let pred_all = predicate.edge_predicate().is_pass_all();
        let check_total = predicate.total_amount_max() != Amount::MAX;
        let monotone = predicate.requires_monotone();
        let has_from_start = predicate
            .positions()
            .any(|(p, _)| matches!(p, Position::FromStart(_)));
        Self {
            pred_all,
            attrs_needed: !pred_all || check_total || monotone || has_from_start,
            cycle_check: predicate.has_cycle_constraints(),
            check_total,
            monotone,
            has_from_start,
            vf_any: *predicate.vertex_filter() == VertexFilter::Any,
        }
    }
}

/// Root-edge admission: the pushed-down predicate parts decidable from the
/// root edge alone. The root is part of every cycle it closes, so it must
/// satisfy the per-edge predicate, the vertex filter on both endpoints, any
/// constraint pinned at `FromEnd(0)` (the root *is* the last reported
/// edge), and leave room under the total-amount ceiling. Records the
/// matching prune counter and returns `false` when the root can close
/// nothing.
fn admit_root(
    e: &TemporalEdge,
    predicate: &CyclePredicate,
    metrics: &WorkMetrics,
    worker: usize,
) -> bool {
    let edge_pred = predicate.edge_predicate();
    if !edge_pred.is_pass_all() && !edge_pred.accepts(e) {
        return false;
    }
    let vf = predicate.vertex_filter();
    if *vf != VertexFilter::Any && (!vf.accepts(e.src) || !vf.accepts(e.dst)) {
        metrics.vertex_prune(worker);
        return false;
    }
    if let Some(p) = predicate.from_end_at(0) {
        if !p.accepts(e) {
            metrics.positional_prune(worker);
            return false;
        }
    }
    if e.amount > predicate.total_amount_max() {
        metrics.aggregate_prune(worker);
        return false;
    }
    true
}

/// Per-edge admission of path extension: evaluates the pushed-down
/// predicate parts decidable from the candidate edge and the fixed path
/// prefix — the per-edge attribute predicate, the monotone aggregate bounds
/// (running total vs. ceiling, strict amount escalation below the root's
/// amount), and the `FromStart(prefix_len)` positional constraint (the
/// prefix is fixed, so the candidate's index is final). Returns the running
/// total and amount the extended path would carry, or `None` when the
/// branch is pruned (with the matching counter recorded). `last_amount` is
/// meaningful iff `prefix_len > 0`.
#[inline]
#[allow(clippy::too_many_arguments)] // the per-edge hot path
fn admit_edge<G: GraphView + ?Sized>(
    graph: &G,
    predicate: &CyclePredicate,
    push: Pushdown,
    id: EdgeId,
    prefix_len: usize,
    root_amount: Amount,
    sum: Amount,
    last_amount: Amount,
    metrics: &WorkMetrics,
    worker: usize,
) -> Option<(Amount, Amount)> {
    if !push.attrs_needed {
        return Some((sum, 0));
    }
    let e = graph.edge(id);
    if !push.pred_all && !predicate.edge_predicate().accepts(&e) {
        return None;
    }
    if push.monotone && (e.amount >= root_amount || (prefix_len > 0 && e.amount <= last_amount)) {
        // Amounts must strictly escalate along the reported order and the
        // closing root edge is the largest of all, so a non-escalating hop —
        // or one at/above the root's amount — can never be completed.
        metrics.aggregate_prune(worker);
        return None;
    }
    let sum = sum.saturating_add(e.amount);
    if push.check_total && sum > predicate.total_amount_max() {
        // Amounts are non-negative: a partial total above the ceiling stays
        // above it.
        metrics.aggregate_prune(worker);
        return None;
    }
    if push.has_from_start {
        if let Some(p) = predicate.from_start_at(prefix_len as u32) {
            if !p.accepts(&e) {
                metrics.positional_prune(worker);
                return None;
            }
        }
    }
    Some((sum, e.amount))
}

/// The exact [`CyclePredicate::accepts_cycle_edges`] re-check at close time,
/// over the assembled edge-id buffer. Vertex membership is already enforced
/// during expansion, so only the edge-sequence parts are re-checked — this is
/// where the non-monotone constraints (total minimum, `FromEnd(i >= 1)`
/// positions) are decided.
fn cycle_accepted<G: GraphView + ?Sized>(
    graph: &G,
    predicate: &CyclePredicate,
    edge_buf: &mut Vec<TemporalEdge>,
    path_edges: &[EdgeId],
) -> bool {
    edge_buf.clear();
    edge_buf.extend(path_edges.iter().map(|&id| graph.edge(id)));
    predicate.accepts_cycle_edges(edge_buf)
}

/// Records one root's union pass in the deterministic work counters: the
/// union's size and the edges the pass examined.
fn record_union(metrics: &WorkMetrics, worker: usize, union: &CycleUnionWorkspace) {
    metrics.union_members(worker, union.union_size() as u64);
    metrics.union_edge_scans(worker, union.edge_scans());
}

/// The per-root constants of one delta search, shared by its owner and by
/// every search stolen from it. The root's pruning state travels beside
/// them as a [`UnionQuery`]: the worker's own workspace while the search is
/// drained where it was prepared, or a read-only [`UnionView`] snapshot
/// that thieves share instead of copying.
#[derive(Clone, Copy)]
struct RootBounds {
    /// The root (maximum) edge; simple-mode path edges must stay below it.
    root: EdgeId,
    /// The root's tail `u` — reaching it closes a cycle.
    target: VertexId,
    /// Admissible window for simple extensions (fixed per root).
    window: TimeWindow,
    /// Temporal: upper timestamp bound for path edges (`t0 - 1`).
    t_last: Timestamp,
    /// Amount of the root edge — under monotonicity every path edge must
    /// stay strictly below it.
    root_amount: Amount,
}

impl RootBounds {
    /// The window of the out-edges that may leave a tip reached at
    /// `arrival` (temporal: strictly later, and before the root).
    #[inline]
    fn window_after(&self, kind: DeltaKind, arrival: Timestamp) -> TimeWindow {
        if kind.is_temporal() {
            TimeWindow::new(arrival.saturating_add(1), self.t_last)
        } else {
            self.window
        }
    }

    /// Could `entry`, leaving a tip after `prefix_edges` path edges, extend
    /// the path rather than close or die? Decided from the root's constants
    /// alone (no counters, no path state), so a thief can ask it under the
    /// victim's lock; a `true` may still be pruned when the entry is run.
    fn may_extend(
        &self,
        kind: DeltaKind,
        union: &UnionView,
        entry: &AdjEntry,
        prefix_edges: usize,
    ) -> bool {
        (kind.is_temporal() || entry.edge < self.root)
            && entry.neighbor != self.target
            && union.in_union(entry.neighbor)
            && (!kind.is_temporal() || union.can_close_after(entry.neighbor, entry.ts))
            && kind.len_ok(prefix_edges + 3)
    }
}

/// One recursion level of a frame-stack delta search: the tip's unclaimed
/// admissible out-edges and the aggregate state of the path reaching the
/// tip. The entries are a sub-slice of the graph's adjacency (for temporal
/// searches already cut to timestamps after the arrival at the tip), so
/// pushing a frame allocates nothing and a stolen frame carries its arrival
/// bound.
#[derive(Clone, Copy)]
struct Frame<'g> {
    /// The tip's entries not yet claimed, in adjacency order.
    entries: &'g [AdjEntry],
    /// Running saturating total of the root and the path edges to the tip.
    sum: Amount,
    /// Amount of the last path edge (meaningful iff the path has an edge).
    last_amount: Amount,
}

/// The mutable state of one running search — a root's, or a stolen
/// branch's. `frames[i]` explores the tip of a path of `base + i` vertices.
#[derive(Default)]
struct SearchState<'g> {
    base: usize,
    path: Vec<VertexId>,
    path_edges: Vec<EdgeId>,
    on_path: VertexMarks,
    frames: Vec<Frame<'g>>,
    /// Unclaimed entries over all frames.
    unclaimed: usize,
    /// Scratch for the close-time whole-cycle re-check.
    edge_buf: Vec<TemporalEdge>,
    /// Edge visits and recursive calls since the last
    /// [`flush`](Pass::flush): plain counters on the hot path, added to the
    /// run's [`WorkMetrics`] once per drained search.
    edge_visits: u64,
    calls: u64,
    /// The completion probe's depth-first stack and its visited
    /// `(vertex, arrival)` pairs, reused across probes.
    probe_stack: Vec<(VertexId, Timestamp)>,
    probe_seen: FxHashSet<(VertexId, Timestamp)>,
}

impl SearchState<'_> {
    /// A worker's search state for one run, built on the path buffers of
    /// its persistent scratch (the frames borrow the run's graph, so they
    /// are the run's own).
    fn lend(scratch: &mut RootScratch) -> Self {
        Self {
            path: std::mem::take(&mut scratch.path),
            path_edges: std::mem::take(&mut scratch.path_edges),
            on_path: std::mem::take(&mut scratch.on_path),
            edge_buf: std::mem::take(&mut scratch.edge_buf),
            ..Self::default()
        }
    }

    /// Hands the path buffers back to the scratch for the next run.
    fn give_back(self, scratch: &mut RootScratch) {
        scratch.path = self.path;
        scratch.path_edges = self.path_edges;
        scratch.on_path = self.on_path;
        scratch.edge_buf = self.edge_buf;
    }
}

/// A search registered for thieves by the fine driver.
struct FineSearch<'g> {
    bounds: RootBounds,
    union: Arc<UnionView>,
    /// Held by the owner across its steps, so a step costs no lock round
    /// trip; handed over whenever `thieves` is non-zero.
    state: Mutex<SearchState<'g>>,
    /// Lock-free hint that `state` holds unclaimed entries.
    stealable: AtomicBool,
    /// Thieves waiting for `state`.
    thieves: AtomicUsize,
}

impl<'g> FineSearch<'g> {
    /// Splits work off this search for an idle worker: the unclaimed entries
    /// of the shallowest frame up to and including the first one that
    /// [may extend](RootBounds::may_extend) the path (all of them if none
    /// may). Only now is state copied (copy-on-steal): the path prefix of
    /// that frame, its edges and `on_path` go into the thief's recycled
    /// buffers `into`, together with the frame's `sum`/`last_amount`; the
    /// root's bounds and union are shared. Counts the thief's search as
    /// outstanding in `sched` before releasing the victim.
    fn split(
        &self,
        kind: DeltaKind,
        into: &mut SearchState<'g>,
        sched: &StealLoop<FineSearch<'g>>,
        metrics: &WorkMetrics,
        worker: usize,
    ) -> Option<(RootBounds, Arc<UnionView>)> {
        if !self.stealable.load(Ordering::Relaxed) {
            return None;
        }
        self.thieves.fetch_add(1, Ordering::AcqRel);
        let mut guard = self.state.lock();
        self.thieves.fetch_sub(1, Ordering::AcqRel);
        let st = &mut *guard;
        let Some(depth) = st.frames.iter().position(|f| !f.entries.is_empty()) else {
            self.stealable.store(false, Ordering::Relaxed);
            return None;
        };
        let prefix = st.base + depth;
        let frame = &mut st.frames[depth];
        let rest = frame.entries;
        let take = rest
            .iter()
            .position(|e| self.bounds.may_extend(kind, &self.union, e, prefix - 1))
            .map_or(rest.len(), |k| k + 1);
        let stolen = Frame {
            entries: &rest[..take],
            ..*frame
        };
        frame.entries = &rest[take..];
        st.unclaimed -= take;
        if st.unclaimed == 0 {
            self.stealable.store(false, Ordering::Relaxed);
        }
        sched.count_split();

        metrics.copy_event(worker);
        into.base = prefix;
        into.path.clear();
        into.path.extend_from_slice(&st.path[..prefix]);
        into.path_edges.clear();
        into.path_edges
            .extend_from_slice(&st.path_edges[..prefix - 1]);
        into.on_path.reset(st.on_path.universe());
        for &v in &into.path {
            into.on_path.insert(v);
        }
        into.on_path.insert(self.bounds.target);
        into.frames.clear();
        into.frames.push(stolen);
        into.unclaimed = take;
        Some((self.bounds, Arc::clone(&self.union)))
    }
}

/// The constants of one delta pass, shared by every worker and search of
/// its run.
struct Pass<'a, G: ?Sized, S> {
    graph: &'a G,
    sink: &'a HaltingSink<'a, S>,
    metrics: &'a WorkMetrics,
    kind: DeltaKind,
    floor: Timestamp,
    /// Whole-cycle predicate pushed into every search of the pass.
    predicate: &'a CyclePredicate,
    /// Cached pushdown flags (see [`Pushdown`]).
    push: Pushdown,
    /// Run Read–Tarjan's completion probe before pushing a branch.
    probe: bool,
}

impl<'a, G: GraphView + ?Sized, S: CycleSink> Pass<'a, G, S> {
    /// Per-root preamble: floor / self-loop handling, the mirrored union pass
    /// into the worker's scratch (where the search reads it), and the root
    /// frame pushed into the worker's recycled buffers `st`. Returns `None`
    /// when the root closes nothing.
    fn prepare_root(
        &self,
        root: EdgeId,
        scratch: &mut RootScratch,
        st: &mut SearchState<'a>,
        worker: usize,
    ) -> Option<RootBounds> {
        let e = self.graph.edge(root);
        // A batch that straddles the retention span can contain edges that
        // expired the moment they arrived; they close nothing, and neither
        // does a self-loop under the temporal definition (checked before
        // admission, so it records no prune).
        if e.ts < self.floor || (e.src == e.dst && self.kind.is_temporal()) {
            return None;
        }
        // The root edge is part of every cycle it closes.
        if !admit_root(&e, self.predicate, self.metrics, worker) {
            return None;
        }
        if e.src == e.dst {
            if let DeltaKind::Simple(opts) = self.kind {
                if opts.include_self_loops
                    && opts.len_ok(1)
                    && (!self.push.cycle_check
                        || self.predicate.accepts_cycle_edges(std::slice::from_ref(&e)))
                {
                    self.sink.push(&[e.src], &[root]);
                }
            }
            return None;
        }
        self.metrics.root_processed(worker);
        // A cycle whose maximum edge has timestamp t0 fits in a δ-window iff
        // all of its edges have ts >= t0 - δ (for a temporal cycle, its first
        // edge anchors the window); clamp at the floor.
        let delta = match self.kind {
            DeltaKind::Simple(opts) => opts.effective_delta(),
            DeltaKind::Temporal(opts) => opts.window_delta,
        };
        let start = e.ts.saturating_sub(delta).max(self.floor);
        let window = TimeWindow::new(start, e.ts);
        let union = &mut scratch.union;
        let reachable = if self.kind.is_temporal() {
            union.compute_temporal_before(self.graph, root, window, self.predicate)
        } else {
            union.compute_simple_before(self.graph, root, window, self.predicate)
        };
        record_union(self.metrics, worker, union);
        if !reachable {
            return None;
        }
        let bounds = RootBounds {
            root,
            target: e.src,
            window,
            t_last: e.ts.saturating_sub(1),
            root_amount: e.amount,
        };
        st.calls += 1;
        // Seeding the arrival one below the window start admits exactly
        // temporal first hops with ts >= start.
        let entries = self.graph.out_edges_in_window(
            e.dst,
            bounds.window_after(self.kind, start.saturating_sub(1)),
        );
        st.base = 1;
        st.path.clear();
        st.path.push(e.dst);
        st.path_edges.clear();
        st.on_path.reset(self.graph.num_vertices());
        st.on_path.insert(e.src);
        st.on_path.insert(e.dst);
        st.frames.clear();
        st.frames.push(Frame {
            entries,
            sum: e.amount,
            last_amount: 0,
        });
        st.unclaimed = entries.len();
        Some(bounds)
    }

    /// Runs one entry claimed from the deepest frame: admission, pruning
    /// and counters of one depth-first call, except that a continuable
    /// branch pushes a frame instead of recursing.
    #[inline(always)]
    fn expand<U: UnionQuery + ?Sized>(
        &self,
        b: &RootBounds,
        union: &U,
        st: &mut SearchState<'a>,
        entry: AdjEntry,
        (sum, last_amount): (Amount, Amount),
        worker: usize,
    ) {
        st.edge_visits += 1;
        if !self.kind.is_temporal() && entry.edge >= b.root {
            // Temporal admissibility is already timestamp-bounded by
            // `t_last < t0` (ids refine timestamp order).
            return;
        }
        let Some((sum, amount)) = admit_edge(
            self.graph,
            self.predicate,
            self.push,
            entry.edge,
            st.path_edges.len(),
            b.root_amount,
            sum,
            last_amount,
            self.metrics,
            worker,
        ) else {
            return;
        };
        let w = entry.neighbor;
        if w == b.target {
            if self.kind.len_ok(st.path_edges.len() + 2) {
                st.path.push(b.target);
                st.path_edges.push(entry.edge);
                st.path_edges.push(b.root);
                if !self.push.cycle_check
                    || cycle_accepted(self.graph, self.predicate, &mut st.edge_buf, &st.path_edges)
                {
                    self.sink.push(&st.path, &st.path_edges);
                }
                st.path_edges.pop();
                st.path_edges.pop();
                st.path.pop();
            }
            return;
        }
        if !self.push.vf_any && !self.predicate.vertex_filter().accepts(w) {
            self.metrics.vertex_prune(worker);
            return;
        }
        if st.on_path.contains(w)
            || !union.in_union(w)
            || (self.kind.is_temporal() && !union.can_close_after(w, entry.ts))
            || !self.kind.len_ok(st.path_edges.len() + 3)
            || (self.probe && !self.completes(b, union, st, w, entry.ts))
        {
            return;
        }
        st.calls += 1;
        let entries = self
            .graph
            .out_edges_in_window(w, b.window_after(self.kind, entry.ts));
        st.path.push(w);
        st.path_edges.push(entry.edge);
        st.on_path.insert(w);
        st.frames.push(Frame {
            entries,
            sum,
            last_amount: amount,
        });
        st.unclaimed += entries.len();
    }

    /// Read–Tarjan's completion probe (see [`run`]): can `start`, reached
    /// at `arrival`, still reach the root's tail over admissible edges
    /// without touching the path or `start` again? A depth-first walk that
    /// visits each `(vertex, arrival)` pair once — each vertex once in a
    /// simple search, whose windows ignore arrival times.
    fn completes<U: UnionQuery + ?Sized>(
        &self,
        b: &RootBounds,
        union: &U,
        st: &mut SearchState<'a>,
        start: VertexId,
        arrival: Timestamp,
    ) -> bool {
        let temporal = self.kind.is_temporal();
        let key = |v, t| (v, if temporal { t } else { Timestamp::MIN });
        st.probe_stack.clear();
        st.probe_seen.clear();
        st.probe_stack.push((start, arrival));
        st.probe_seen.insert(key(start, arrival));
        while let Some((v, t)) = st.probe_stack.pop() {
            for entry in self
                .graph
                .out_edges_in_window(v, b.window_after(self.kind, t))
            {
                st.edge_visits += 1;
                if !temporal && entry.edge >= b.root {
                    continue;
                }
                let x = entry.neighbor;
                if x == b.target {
                    return true;
                }
                if x == start
                    || st.on_path.contains(x)
                    || !union.in_union(x)
                    || (temporal && !union.can_close_after(x, entry.ts))
                {
                    continue;
                }
                if st.probe_seen.insert(key(x, entry.ts)) {
                    st.probe_stack.push((x, entry.ts));
                }
            }
        }
        false
    }

    /// Adds the edge visits and calls `st` counted since its last flush to
    /// the run's metrics, under `worker`.
    fn flush(&self, st: &mut SearchState<'a>, worker: usize) {
        self.metrics
            .edge_visits(worker, std::mem::take(&mut st.edge_visits));
        self.metrics
            .recursive_calls(worker, std::mem::take(&mut st.calls));
    }

    /// The owner's claim-or-backtrack step, whichever driver owns the
    /// search: runs the next unclaimed entry of the deepest frame (the
    /// sequential depth-first order), or pops that frame once it is
    /// exhausted. Returns `false` when no frame is left. Forced inline, with
    /// [`expand`](Self::expand), into the owner's loop: left to the
    /// compiler, the single-thread drain ran 7–16% slower than the
    /// recursive search it replaced on hub-burst and dense-graph roots.
    #[inline(always)]
    fn step<U: UnionQuery + ?Sized>(
        &self,
        b: &RootBounds,
        union: &U,
        st: &mut SearchState<'a>,
        worker: usize,
    ) -> bool {
        let Some(frame) = st.frames.last_mut() else {
            return false;
        };
        if let Some((&entry, rest)) = frame.entries.split_first() {
            frame.entries = rest;
            let sums = (frame.sum, frame.last_amount);
            st.unclaimed -= 1;
            self.expand(b, union, st, entry, sums, worker);
        } else {
            st.frames.pop();
            if st.frames.is_empty() {
                return false;
            }
            let v = st.path.pop().expect("a frame above the base owns a vertex");
            st.path_edges.pop();
            st.on_path.remove(v);
        }
        true
    }

    /// Prepares and drains the search of every root `roots` yields, one
    /// after another on the calling worker — the loop of every driver but
    /// the fine one. A search drained here is never registered or locked.
    /// Winds down early, with roots and entries unclaimed, once the sink
    /// stops the run.
    fn sweep(
        &self,
        mut roots: impl Iterator<Item = EdgeId>,
        scratch: &mut RootScratch,
        worker: usize,
    ) {
        let mut st = SearchState::lend(scratch);
        while !self.sink.stopped() {
            let Some(root) = roots.next() else {
                break;
            };
            if let Some(b) = self.prepare_root(root, scratch, &mut st, worker) {
                while !self.sink.stopped() && self.step(&b, &scratch.union, &mut st, worker) {}
                self.flush(&mut st, worker);
            }
        }
        st.give_back(scratch);
    }

    /// The coarse driver: pool workers claim roots one at a time from a
    /// dynamic counter and sweep them.
    fn sweep_claimed(
        &self,
        roots: Range<EdgeId>,
        pool: &ThreadPool,
        scratches: &mut [RootScratch],
    ) {
        let counter = DynamicCounter::new(roots.len(), 1);
        let base = roots.start;
        pool.scope(|scope| {
            for scratch in scratches[..pool.num_threads()].iter_mut() {
                let counter = &counter;
                scope.spawn(move |_, ctx| {
                    let worker = ctx.worker_id();
                    let t0 = Instant::now();
                    let claimed = std::iter::from_fn(|| counter.next()).map(|i| base + i as EdgeId);
                    self.sweep(claimed, scratch, worker);
                    self.metrics.add_busy(worker, t0.elapsed());
                });
            }
        });
    }

    /// Runs a registered search to completion on the calling worker through
    /// [`step`](Self::step), while thieves split the shallowest frame off
    /// through [`FineSearch::split`]. The owner keeps the search's lock
    /// across steps and hands it over whenever a thief waits. Winds down
    /// early, with entries unclaimed, once the sink stops the run.
    fn run_search(&self, search: &FineSearch<'a>, worker: usize) {
        let (b, union) = (&search.bounds, &*search.union);
        let mut guard = search.state.lock();
        while !self.sink.stopped() {
            if search.thieves.load(Ordering::Relaxed) > 0 {
                // Let every waiting thief take its turn before the next step.
                drop(guard);
                while search.thieves.load(Ordering::Acquire) > 0 {
                    std::hint::spin_loop();
                    std::thread::yield_now();
                }
                guard = search.state.lock();
            }
            let st = &mut *guard;
            if !self.step(b, union, st, worker) {
                break;
            }
            let stealable = st.unclaimed > 0;
            if search.stealable.load(Ordering::Relaxed) != stealable {
                search.stealable.store(stealable, Ordering::Relaxed);
            }
        }
        self.flush(&mut guard, worker);
    }

    /// Registers `state` as a search under `bounds` and `union`, runs it,
    /// and hands its buffers back for reuse.
    fn run_registered(
        &self,
        sched: &StealLoop<FineSearch<'a>>,
        (bounds, union): (RootBounds, Arc<UnionView>),
        state: SearchState<'a>,
        worker: usize,
    ) -> SearchState<'a> {
        let search = Arc::new(FineSearch {
            bounds,
            union,
            stealable: AtomicBool::new(state.unclaimed > 0),
            thieves: AtomicUsize::new(0),
            state: Mutex::new(state),
        });
        let guard = sched.register(Arc::clone(&search));
        self.run_search(&search, worker);
        drop(guard);
        search.stealable.store(false, Ordering::Relaxed);
        let state = std::mem::take(&mut *search.state.lock());
        state
    }

    /// The fine driver — the paper's copy-on-steal (§5) applied to the
    /// max-edge-rooted backward search. Workers run a [`StealLoop`] over
    /// the batch range, like `par::fine_johnson`: they claim roots and run
    /// each closing root's search registered for thieves. An idle worker
    /// splits the shallowest frame's next branch off any registered search,
    /// copies the path prefix once and runs the branch as a search of its
    /// own, itself open to further steals. A batch whose cycles all hang off
    /// one hot root thus still engages every worker, and state is copied
    /// once per steal rather than once per branch.
    fn run_fine(&self, roots: Range<EdgeId>, pool: &ThreadPool, scratches: &mut [RootScratch]) {
        let sched = StealLoop::new(roots.len());
        let base = roots.start;
        pool.scope(|scope| {
            for scratch in scratches[..pool.num_threads()].iter_mut() {
                let sched = &sched;
                scope.spawn(move |_, ctx| {
                    let worker = ctx.worker_id();
                    let mut spare = SearchState::lend(scratch);
                    sched.run_worker(
                        &mut spare,
                        || self.sink.stopped(),
                        |spare, i| {
                            let t0 = Instant::now();
                            let root = base + i as EdgeId;
                            if let Some(bounds) = self.prepare_root(root, scratch, spare, worker) {
                                // Snapshot the union so thieves can share it.
                                let ws = &scratch.union;
                                let union = Arc::new(if self.kind.is_temporal() {
                                    UnionView::from_temporal(ws)
                                } else {
                                    UnionView::from_simple(ws)
                                });
                                let search = (bounds, union);
                                *spare = self.run_registered(
                                    sched,
                                    search,
                                    std::mem::take(spare),
                                    worker,
                                );
                            }
                            self.metrics.add_busy(worker, t0.elapsed());
                        },
                        |spare, victim| victim.split(self.kind, spare, sched, self.metrics, worker),
                        |spare, search| {
                            let t0 = Instant::now();
                            self.metrics.steal_event(worker);
                            *spare =
                                self.run_registered(sched, search, std::mem::take(spare), worker);
                            self.metrics.add_busy(worker, t0.elapsed());
                        },
                    );
                    spare.give_back(scratch);
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{CollectingSink, CountingSink, Cycle, FirstKSink};
    use crate::seq::johnson::johnson_simple;
    use pce_graph::generators::{self, RandomTemporalConfig};
    use pce_graph::{EdgePredicate, GraphBuilder, LabelFilter, TemporalGraph};

    fn all_roots(g: &TemporalGraph) -> Range<EdgeId> {
        0..g.num_edges() as EdgeId
    }

    fn plan(kind: DeltaKind, driver: Granularity, predicate: &CyclePredicate) -> DeltaPlan<'_> {
        DeltaPlan {
            kind,
            granularity: driver,
            floor: Timestamp::MIN,
            predicate,
            algorithm: Algorithm::Johnson,
        }
    }

    /// Runs `plan` over `roots` on fresh scratches, one per worker of `pool`
    /// (which the sequential driver ignores).
    fn run_on<S: CycleSink>(
        g: &TemporalGraph,
        plan: &DeltaPlan<'_>,
        roots: Range<EdgeId>,
        sink: &S,
        pool: &ThreadPool,
    ) -> RunStats {
        let mut scratches: Vec<RootScratch> = (0..pool.num_threads())
            .map(|_| RootScratch::new(g.num_vertices()))
            .collect();
        run(plan, g, roots, sink, Some(pool), &mut scratches)
    }

    /// Every driver with the pool it is tested on: sequential once, and
    /// coarse and fine on 1, 2 and 4 workers.
    struct Drivers {
        pools: Vec<ThreadPool>,
    }

    impl Drivers {
        fn new() -> Self {
            Self {
                pools: [1, 2, 4].into_iter().map(ThreadPool::new).collect(),
            }
        }

        fn iter(&self) -> impl Iterator<Item = (Granularity, &ThreadPool)> {
            let parallel = [Granularity::CoarseGrained, Granularity::FineGrained];
            std::iter::once((Granularity::Sequential, &self.pools[0])).chain(
                self.pools
                    .iter()
                    .flat_map(move |pool| parallel.map(|driver| (driver, pool))),
            )
        }
    }

    /// The label of one driver run in assertion messages.
    fn label(driver: Granularity, pool: &ThreadPool) -> String {
        format!("{driver:?} on {} workers", pool.num_threads())
    }

    /// Every driver must enumerate exactly the brute-force oracle's cycle
    /// set, which roots every cycle at its *minimum* edge (and, for simple
    /// cycles, so does the one-shot Johnson search). The oracle shares no
    /// code with the delta search.
    #[test]
    fn max_rooted_matches_min_rooted_simple() {
        let drivers = Drivers::new();
        for seed in 0..6 {
            let g = generators::uniform_temporal(RandomTemporalConfig {
                num_vertices: 14,
                num_edges: 70,
                time_span: 50,
                seed: 900 + seed,
            });
            for delta in [12, 30, 100] {
                let opts = SimpleCycleOptions::with_window(delta);
                let oracle = crate::testing::oracle_simple(&g, &opts);
                let fwd = CollectingSink::new();
                johnson_simple(&g, &opts, &fwd);
                assert_eq!(fwd.canonical_cycles(), oracle, "seed {seed} delta {delta}");
                let pass_all = CyclePredicate::pass_all();
                for (driver, pool) in drivers.iter() {
                    let bwd = CollectingSink::new();
                    let plan = plan(DeltaKind::Simple(opts), driver, &pass_all);
                    run_on(&g, &plan, all_roots(&g), &bwd, pool);
                    let run = label(driver, pool);
                    assert_eq!(
                        bwd.canonical_cycles(),
                        oracle,
                        "seed {seed} delta {delta} {run}"
                    );
                }
            }
        }
    }

    #[test]
    fn max_rooted_matches_min_rooted_temporal() {
        let drivers = Drivers::new();
        for seed in 0..6 {
            let g = generators::power_law_temporal(RandomTemporalConfig {
                num_vertices: 20,
                num_edges: 110,
                time_span: 70,
                seed: 1_300 + seed,
            });
            for delta in [15, 40, 100] {
                let opts = TemporalCycleOptions::with_window(delta);
                let oracle = crate::testing::oracle_temporal(&g, delta);
                let pass_all = CyclePredicate::pass_all();
                for (driver, pool) in drivers.iter() {
                    let bwd = CollectingSink::new();
                    let plan = plan(DeltaKind::Temporal(opts), driver, &pass_all);
                    run_on(&g, &plan, all_roots(&g), &bwd, pool);
                    let run = label(driver, pool);
                    assert_eq!(
                        bwd.canonical_cycles(),
                        oracle,
                        "seed {seed} delta {delta} {run}"
                    );
                }
            }
        }
    }

    /// Read–Tarjan's completion probe, simple and temporal, on every
    /// driver: the same cycles as the plain search, fewer recursive calls
    /// (a frame is pushed only when the probe found a way to the target)
    /// and more edge visits (the probe's own), with counters that do not
    /// depend on the driver.
    #[test]
    fn read_tarjan_probe_keeps_cycles_and_prunes_dead_ends() {
        let drivers = Drivers::new();
        let pass_all = CyclePredicate::pass_all();
        let g = generators::power_law_temporal(RandomTemporalConfig {
            num_vertices: 20,
            num_edges: 110,
            time_span: 70,
            seed: 1_302,
        });
        for kind in [
            DeltaKind::Simple(SimpleCycleOptions::with_window(30)),
            DeltaKind::Temporal(TemporalCycleOptions::with_window(40)),
        ] {
            let rt_plan = |driver| DeltaPlan {
                algorithm: Algorithm::ReadTarjan,
                ..plan(kind, driver, &pass_all)
            };
            let seq_pool = &drivers.pools[0];
            let johnson = CollectingSink::new();
            let plan_j = plan(kind, Granularity::Sequential, &pass_all);
            let j = run_on(&g, &plan_j, all_roots(&g), &johnson, seq_pool).work;
            let seq = CollectingSink::new();
            let seq_stats = run_on(
                &g,
                &rt_plan(Granularity::Sequential),
                all_roots(&g),
                &seq,
                seq_pool,
            );
            let rt = &seq_stats.work;
            assert!(!johnson.canonical_cycles().is_empty(), "{kind:?}");
            assert_eq!(
                johnson.canonical_cycles(),
                seq.canonical_cycles(),
                "{kind:?}"
            );
            assert!(
                rt.total_recursive_calls() < j.total_recursive_calls(),
                "{kind:?}"
            );
            assert!(rt.total_edge_visits() > j.total_edge_visits(), "{kind:?}");
            for (driver, pool) in drivers.iter() {
                let sink = CollectingSink::new();
                let stats = run_on(&g, &rt_plan(driver), all_roots(&g), &sink, pool);
                let run = format!("{kind:?} {}", label(driver, pool));
                assert_eq!(seq.canonical_cycles(), sink.canonical_cycles(), "{run}");
                assert_same_work(&seq_stats, &stats);
                assert_eq!(stats.algorithm, Some(Algorithm::ReadTarjan), "{run}");
            }
        }
    }

    /// Cycle counts of small hand-built cases under every driver: the
    /// options, the floor and the root range are respected whoever runs the
    /// pass. Each case is `(graph, kind, floor, roots, expected cycles)`.
    #[test]
    fn options_floor_and_root_range_are_respected_by_every_driver() {
        // 0↔1 (closed at t=2) and the triangle 0→1→2→0 (closed at t=4).
        let two_cycles = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 0, 2)
            .add_edge(1, 2, 3)
            .add_edge(2, 0, 4)
            .build();
        let self_loop = GraphBuilder::new()
            .add_edge(0, 0, 1)
            .add_edge(0, 1, 2)
            .add_edge(1, 0, 3)
            .build();
        // Triangle closed by the t=10 edge, whose t=1 first hop a floor of 3
        // expires.
        let triangle = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 2, 5)
            .add_edge(2, 0, 10)
            .build();
        // Two vertex-disjoint 2-cycles; each closes at its own later edge, so
        // the root range {2} (the 1→0 edge) closes exactly the 0/1 cycle.
        let disjoint = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(2, 3, 2)
            .add_edge(1, 0, 3)
            .add_edge(3, 2, 4)
            .build();
        let unconstrained = DeltaKind::Simple(SimpleCycleOptions::unconstrained());
        let with_loops =
            DeltaKind::Simple(SimpleCycleOptions::unconstrained().include_self_loops(true));
        let temporal = DeltaKind::Temporal(TemporalCycleOptions::with_window(100));
        let min = Timestamp::MIN;
        let cases: [(&TemporalGraph, DeltaKind, Timestamp, Range<EdgeId>, u64); 10] = [
            (&two_cycles, unconstrained, min, 0..4, 2),
            (
                &two_cycles,
                DeltaKind::Simple(SimpleCycleOptions::unconstrained().max_len(2)),
                min,
                0..4,
                1,
            ),
            (&self_loop, unconstrained, min, 0..3, 1),
            (&self_loop, with_loops, min, 0..3, 2),
            // Both cycle-closing hops are expired.
            (&self_loop, unconstrained, 3, 0..3, 0),
            (&triangle, unconstrained, min, 0..3, 1),
            (&triangle, unconstrained, 3, 0..3, 0),
            // Roots themselves below the floor are skipped outright.
            (&triangle, temporal, 11, 0..3, 0),
            (&disjoint, unconstrained, min, 2..3, 1),
            (&disjoint, unconstrained, min, 0..4, 2),
        ];
        let drivers = Drivers::new();
        let pass_all = CyclePredicate::pass_all();
        for (i, (g, kind, floor, roots, expected)) in cases.into_iter().enumerate() {
            for (driver, pool) in drivers.iter() {
                let plan = DeltaPlan {
                    floor,
                    ..plan(kind, driver, &pass_all)
                };
                let sink = CollectingSink::new();
                run_on(g, &plan, roots.clone(), &sink, pool);
                let run = label(driver, pool);
                let cycles = sink.into_cycles();
                assert_eq!(cycles.len() as u64, expected, "case {i} {run}");
                for c in &cycles {
                    c.validate(g).expect("structurally valid");
                }
                if i == 8 {
                    assert!(cycles[0].vertices.contains(&0) && cycles[0].vertices.contains(&1));
                }
            }
        }
    }

    /// A halting sink stops every driver after exactly its first k cycles.
    #[test]
    fn early_termination_stops_every_driver() {
        let g = generators::fig4a_exponential_cycles(12);
        let pass_all = CyclePredicate::pass_all();
        let kind = DeltaKind::Simple(SimpleCycleOptions::unconstrained());
        for (driver, pool) in Drivers::new().iter() {
            let sink = FirstKSink::new(3);
            run_on(
                &g,
                &plan(kind, driver, &pass_all),
                all_roots(&g),
                &sink,
                pool,
            );
            assert_eq!(sink.into_cycles().len(), 3, "{}", label(driver, pool));
        }
    }

    /// Every driver reports the sequential driver's cycles with the same
    /// deterministic work counters, on its own thread count and granularity
    /// tag, at every floor.
    #[test]
    fn every_driver_matches_sequential() {
        let drivers = Drivers::new();
        let pass_all = CyclePredicate::pass_all();
        let uniform = |seed| {
            generators::uniform_temporal(RandomTemporalConfig {
                num_vertices: 18,
                num_edges: 90,
                time_span: 60,
                seed,
            })
        };
        let power_law = generators::power_law_temporal(RandomTemporalConfig {
            num_vertices: 20,
            num_edges: 110,
            time_span: 70,
            seed: 1_301,
        });
        let cases = [
            (
                uniform(77),
                DeltaKind::Simple(SimpleCycleOptions::with_window(20)),
            ),
            (
                uniform(77),
                DeltaKind::Temporal(TemporalCycleOptions::with_window(25)),
            ),
            (
                uniform(78),
                DeltaKind::Simple(SimpleCycleOptions::with_window(20)),
            ),
            (
                uniform(78),
                DeltaKind::Temporal(TemporalCycleOptions::with_window(25).max_len(4)),
            ),
            (
                power_law,
                DeltaKind::Temporal(TemporalCycleOptions::with_window(30)),
            ),
        ];
        for (i, (g, kind)) in cases.iter().enumerate() {
            for floor in [Timestamp::MIN, 20] {
                let plan_for = |driver| DeltaPlan {
                    floor,
                    ..plan(*kind, driver, &pass_all)
                };
                let seq = CollectingSink::new();
                let seq_stats = run_on(
                    g,
                    &plan_for(Granularity::Sequential),
                    all_roots(g),
                    &seq,
                    &drivers.pools[0],
                );
                assert!(!seq.canonical_cycles().is_empty(), "case {i}");
                for (driver, pool) in drivers.iter() {
                    let sink = CollectingSink::new();
                    let stats = run_on(g, &plan_for(driver), all_roots(g), &sink, pool);
                    let run = label(driver, pool);
                    assert_eq!(
                        seq.canonical_cycles(),
                        sink.canonical_cycles(),
                        "case {i} floor {floor} {run}"
                    );
                    assert_same_work(&seq_stats, &stats);
                    let threads = if driver == Granularity::Sequential {
                        1
                    } else {
                        pool.num_threads()
                    };
                    assert_eq!(stats.threads, threads, "{run}");
                    assert_eq!(stats.granularity, Some(driver), "{run}");
                }
            }
        }
    }

    /// Steal-time state restore: all of a lattice's cycles hang off one
    /// root, so 8 workers split it mid-path, and under these predicates a
    /// thief's pruning is only right if it resumes with the stolen frame's
    /// running total and last amount.
    #[test]
    fn fine_steals_restore_frame_state() {
        let g = attributed_hub_burst(2, 10);
        let seq_pool = ThreadPool::new(1);
        let pool = ThreadPool::new(8);
        let simple = DeltaKind::Simple(SimpleCycleOptions::unconstrained());
        let temporal = DeltaKind::Temporal(TemporalCycleOptions::with_window(100));
        let pass_all = CyclePredicate::pass_all();
        let all = CollectingSink::new();
        let plan_all = plan(simple, Granularity::Sequential, &pass_all);
        run_on(&g, &plan_all, all_roots(&g), &all, &seq_pool);
        let all = all.into_cycles();
        let mut totals: Vec<Amount> = all
            .iter()
            .map(|c| c.edges.iter().map(|&id| g.edge(id).amount).sum())
            .collect();
        totals.sort_unstable();
        let (low, high) = (totals[totals.len() / 4], totals[totals.len() * 3 / 5]);
        let pin = Position::FromStart(2);
        let wire = EdgePredicate::pass_all().labels(LabelFilter::allow(vec![0, 1]));
        let predicates = [
            CyclePredicate::pass_all(),
            CyclePredicate::pass_all().monotone_amounts(true),
            CyclePredicate::pass_all().total_min(low).total_max(high),
            CyclePredicate::pass_all().at(pin, wire.clone()),
            CyclePredicate::pass_all()
                .monotone_amounts(true)
                .total_min(low)
                .total_max(high)
                .at(pin, wire),
        ];
        for (i, p) in predicates.iter().enumerate() {
            let seq = CollectingSink::new();
            let seq_stats = run_on(
                &g,
                &plan(simple, Granularity::Sequential, p),
                all_roots(&g),
                &seq,
                &seq_pool,
            );
            let seq_t = CollectingSink::new();
            let seq_t_stats = run_on(
                &g,
                &plan(temporal, Granularity::Sequential, p),
                all_roots(&g),
                &seq_t,
                &seq_pool,
            );
            assert_eq!(seq.canonical_cycles(), seq_t.canonical_cycles(), "case {i}");
            // Every predicate keeps some cycles and, but for pass-all, cuts
            // some.
            assert!(!seq.canonical_cycles().is_empty(), "case {i}");
            assert_eq!(seq.count() == all.len() as u64, i == 0, "case {i}");
            for run in 0..3 {
                for (kind, seq_stats) in [(simple, &seq_stats), (temporal, &seq_t_stats)] {
                    let fine = CollectingSink::new();
                    let plan = plan(kind, Granularity::FineGrained, p);
                    let stats = run_on(&g, &plan, all_roots(&g), &fine, &pool);
                    assert_eq!(
                        seq.canonical_cycles(),
                        fine.canonical_cycles(),
                        "case {i} run {run}"
                    );
                    assert_same_work(seq_stats, &stats);
                }
            }
            // A halting sink stops thieves and owners alike, after exactly
            // its first k cycles — each one a cycle the full run reports.
            let first = FirstKSink::new(5);
            run_on(
                &g,
                &plan(simple, Granularity::FineGrained, p),
                all_roots(&g),
                &first,
                &pool,
            );
            let expected = seq.canonical_cycles();
            let halted = crate::testing::canonicalized(first.into_cycles());
            assert_eq!(halted.len(), expected.len().min(5), "case {i}");
            assert!(halted.iter().all(|c| expected.contains(c)), "case {i}");
        }
    }

    /// `hub_burst(width, depth)` with seeded amounts and labels: amounts
    /// climb by layer with a jitter that sometimes breaks strict escalation,
    /// so monotone and total-amount pruning cut branches at every depth.
    fn attributed_hub_burst(width: usize, depth: usize) -> TemporalGraph {
        let mut b = GraphBuilder::new();
        for (i, e) in generators::hub_burst(width, depth)
            .edges()
            .iter()
            .enumerate()
        {
            let jitter = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61;
            let amount = e.ts as Amount * 6 + jitter;
            b.push_attr_edge(TemporalEdge::with_attrs(
                e.src,
                e.dst,
                e.ts,
                amount,
                (jitter % 3) as u16,
            ));
        }
        b.build()
    }

    /// The deterministic work counters every driver must share with the
    /// sequential one.
    fn assert_same_work(seq: &RunStats, other: &RunStats) {
        let (s, f) = (&seq.work, &other.work);
        assert_eq!(s.total_edge_visits(), f.total_edge_visits());
        assert_eq!(s.total_recursive_calls(), f.total_recursive_calls());
        assert_eq!(s.total_union_members(), f.total_union_members());
        assert_eq!(s.total_union_edge_scans(), f.total_union_edge_scans());
        assert_eq!(s.total_roots(), f.total_roots());
        assert_eq!(s.total_aggregate_prunes(), f.total_aggregate_prunes());
        assert_eq!(s.total_positional_prunes(), f.total_positional_prunes());
        assert_eq!(s.total_vertex_prunes(), f.total_vertex_prunes());
        assert!(f.total_copies() <= f.total_steals() + f.total_roots());
    }

    /// A self-loop root is skipped before admission under the temporal
    /// definition and admitted first under the simple one — by every
    /// driver, so the prune counters agree: with vertex 5 denied, the
    /// temporal self-loop `5→5` records no vertex prune and the simple one
    /// records one.
    #[test]
    fn self_loop_root_prunes_agree_across_drivers() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 2, 2)
            .add_edge(2, 0, 3)
            .add_edge(5, 5, 4)
            .build();
        let deny = CyclePredicate::pass_all().vertices(VertexFilter::deny(vec![5]));
        let kinds = [
            (
                DeltaKind::Temporal(TemporalCycleOptions::with_window(10)),
                0,
            ),
            (
                DeltaKind::Simple(SimpleCycleOptions::unconstrained().include_self_loops(true)),
                1,
            ),
        ];
        for (kind, vertex_prunes) in kinds {
            for (driver, pool) in Drivers::new().iter() {
                let sink = CountingSink::new();
                let stats = run_on(&g, &plan(kind, driver, &deny), all_roots(&g), &sink, pool);
                let run = format!("{kind:?} {}", label(driver, pool));
                assert_eq!(sink.count(), 1, "{run}");
                assert_eq!(stats.work.total_vertex_prunes(), vertex_prunes, "{run}");
                assert_eq!(stats.work.total_positional_prunes(), 0, "{run}");
                assert_eq!(stats.work.total_aggregate_prunes(), 0, "{run}");
            }
        }
    }

    /// The driver rule both streaming engines share:
    /// `(requested, threads, roots) → granularity`.
    #[test]
    fn for_batch_degrades_like_the_engines() {
        use Granularity::{CoarseGrained, FineGrained, Sequential};
        let cases = [
            // One thread or an empty batch: sequential.
            (Sequential, 1, 5, Sequential),
            (Sequential, 4, 0, Sequential),
            (CoarseGrained, 1, 5, Sequential),
            (CoarseGrained, 4, 0, Sequential),
            (FineGrained, 1, 5, Sequential),
            (FineGrained, 4, 0, Sequential),
            (Sequential, 4, 5, Sequential),
            // Coarse drops to sequential on a single root.
            (CoarseGrained, 4, 1, Sequential),
            (CoarseGrained, 4, 2, CoarseGrained),
            (CoarseGrained, 4, 5, CoarseGrained),
            // Fine stays parallel on a single hot root.
            (FineGrained, 4, 1, FineGrained),
            (FineGrained, 4, 5, FineGrained),
        ];
        for (requested, threads, roots, expected) in cases {
            let granularity = for_batch(requested, threads, roots);
            let case = format!("{requested:?} threads {threads} roots {roots}");
            assert_eq!(granularity, expected, "{case}");
            let scratches_needed = if expected == Sequential { 1 } else { threads };
            assert_eq!(scratches(granularity, threads), scratches_needed, "{case}");
        }
    }

    /// The delta mirror of `fine_johnson::fig4a_work_is_spread_across_workers`:
    /// every cycle of the hub-burst gadget is closed by one root edge, so the
    /// coarse driver pins to a single worker while the fine driver must spread
    /// the search across workers via steals. The
    /// [`SpreadGate`](crate::testing::SpreadGate) sink makes a
    /// thief's arrival independent of how the executor schedules threads.
    #[test]
    fn hub_burst_work_is_spread_across_workers() {
        let g = generators::hub_burst(2, 13);
        let expected = generators::hub_burst_cycle_count(2, 13);
        let pool = ThreadPool::new(4);
        let pass_all = CyclePredicate::pass_all();
        let simple = DeltaKind::Simple(SimpleCycleOptions::unconstrained());
        let sink = crate::testing::SpreadGate::new();
        let stats = run_on(
            &g,
            &plan(simple, Granularity::FineGrained, &pass_all),
            all_roots(&g),
            &sink,
            &pool,
        );
        assert_eq!(sink.count(), expected);
        eprintln!(
            "hub_burst steals={} copies={} per-worker calls={:?}",
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
        // Copy-on-steal: state is copied once per steal, never per branch.
        assert_eq!(stats.work.total_copies(), stats.work.total_steals());
        let active_workers = stats
            .work
            .workers
            .iter()
            .filter(|w| w.recursive_calls > 0)
            .count();
        assert!(
            active_workers > 1,
            "fine-grained delta should use several workers on a hub burst"
        );

        // The temporal variant agrees on the count (every hub-burst cycle is
        // temporal by construction).
        let sink = CountingSink::new();
        let temporal = DeltaKind::Temporal(TemporalCycleOptions::with_window(1_000));
        run_on(
            &g,
            &plan(temporal, Granularity::FineGrained, &pass_all),
            all_roots(&g),
            &sink,
            &pool,
        );
        assert_eq!(sink.count(), expected);
    }

    /// A panicking sink must fail the run, not hang it: under the fine
    /// driver the panicking worker's search still counts as finished, so the
    /// idle workers leave, and every pool driver re-raises the panic. A hang
    /// fails the test after a minute instead of wedging the suite.
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
        const DRIVERS: [Granularity; 3] = [
            Granularity::FineGrained,
            Granularity::CoarseGrained,
            Granularity::Sequential,
        ];
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            // One cycle: exactly one worker panics, the others stay idle.
            let g = GraphBuilder::new()
                .add_edge(0, 1, 1)
                .add_edge(1, 2, 2)
                .add_edge(2, 0, 3)
                .build();
            let pool = ThreadPool::new(4);
            let pass_all = CyclePredicate::pass_all();
            let kind = DeltaKind::Simple(SimpleCycleOptions::unconstrained());
            for driver in DRIVERS {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_on(
                        &g,
                        &plan(kind, driver, &pass_all),
                        all_roots(&g),
                        &Exploding,
                        &pool,
                    )
                }));
                let _ = tx.send((driver, result.is_err()));
            }
        });
        for _ in DRIVERS {
            let (driver, panicked) = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("the run hung after its sink panicked");
            assert!(panicked, "{driver:?}");
        }
    }

    /// Canonical post-filter baseline: pass-all enumeration re-checked per
    /// cycle with the exact predicate over the reported (max-edge-last)
    /// order.
    fn post_filtered(g: &TemporalGraph, cycles: Vec<Cycle>, p: &CyclePredicate) -> Vec<Cycle> {
        crate::testing::canonicalized(cycles.into_iter().filter(|c| {
            let edges: Vec<TemporalEdge> = c.edges.iter().map(|&id| g.edge(id)).collect();
            p.accepts_cycle(&edges, &c.vertices)
        }))
    }

    /// Hand-sized graph exercising every predicate class end to end: two
    /// 3-cycles share the closing max edge `2→0` but differ in their middle
    /// vertex, labels and amounts, so each predicate class separates them a
    /// different way. Under every driver, every pushed predicate must report
    /// exactly the oracle's post-filtered cycles, and the classes whose
    /// bounds are decidable early must record their prune counters.
    #[test]
    fn cycle_predicate_pushdown_matches_post_filter() {
        let mut b = GraphBuilder::new();
        for (src, dst, ts, amount, label) in [
            (0, 1, 1, 5, 1),
            (1, 2, 2, 6, 1),
            (0, 3, 1, 4, 2),
            (3, 2, 2, 5, 2),
            (2, 0, 3, 7, 9),
        ] {
            b.push_attr_edge(TemporalEdge::with_attrs(src, dst, ts, amount, label));
        }
        let g = b.build();
        let opts = SimpleCycleOptions::unconstrained();
        let kind = DeltaKind::Simple(opts);
        let oracle = crate::testing::oracle_simple(&g, &opts);
        let drivers = Drivers::new();
        let all = CollectingSink::new();
        let pass_all = CyclePredicate::pass_all();
        run_on(
            &g,
            &plan(kind, Granularity::Sequential, &pass_all),
            all_roots(&g),
            &all,
            &drivers.pools[0],
        );
        let raw = all.into_cycles();
        assert_eq!(raw.len(), 2, "both 3-cycles close at the 2→0 root");

        // (predicate, expected survivors, which prune counter must fire;
        // None = the constraint is only decidable at close).
        let wire2 = EdgePredicate::pass_all().labels(LabelFilter::allow(vec![2]));
        let cases: Vec<(CyclePredicate, usize, Option<&str>)> = vec![
            (
                CyclePredicate::pass_all().vertices(VertexFilter::deny(vec![3])),
                1,
                Some("vertex"),
            ),
            (
                CyclePredicate::pass_all().at(Position::FromStart(0), wire2.clone()),
                1,
                Some("positional"),
            ),
            (
                CyclePredicate::pass_all().at(Position::FromEnd(1), wire2.clone()),
                1,
                None,
            ),
            (
                CyclePredicate::pass_all().at(
                    Position::FromEnd(0),
                    EdgePredicate::pass_all().min_amount(8),
                ),
                0,
                Some("positional"),
            ),
            // Totals: 5+6+7 = 18 and 4+5+7 = 16.
            (
                CyclePredicate::pass_all().total_max(17),
                1,
                Some("aggregate"),
            ),
            (CyclePredicate::pass_all().total_min(17), 1, None),
            // 5,6,7 escalates strictly; 4,5,7 does too — deny label 1 to
            // leave one, then break it with a per-edge amount cap instead.
            (CyclePredicate::pass_all().monotone_amounts(true), 2, None),
            (
                CyclePredicate::pass_all().total_max(5),
                0,
                Some("aggregate"),
            ),
        ];
        for (i, (p, expect, counter)) in cases.iter().enumerate() {
            let expected = crate::testing::oracle_with_predicates(&g, oracle.clone(), p);
            assert_eq!(expected.len(), *expect, "case {i}: oracle cardinality");
            assert_eq!(post_filtered(&g, raw.clone(), p), expected, "case {i}");
            for (driver, pool) in drivers.iter() {
                let sink = CollectingSink::new();
                let stats = run_on(&g, &plan(kind, driver, p), all_roots(&g), &sink, pool);
                let run = label(driver, pool);
                assert_eq!(
                    sink.canonical_cycles(),
                    expected,
                    "case {i} {run}: pushdown"
                );
                let prunes = match *counter {
                    Some("vertex") => stats.work.total_vertex_prunes(),
                    Some("positional") => stats.work.total_positional_prunes(),
                    Some("aggregate") => stats.work.total_aggregate_prunes(),
                    _ => continue,
                };
                assert!(prunes > 0, "case {i} {run}");
            }
        }
    }

    /// The monotone-layering workload separates signal from decoys *only*
    /// through the aggregate constraints; every driver must agree with the
    /// post-filtered baseline, record identical prune counters, and prune
    /// strictly more than zero branches.
    #[test]
    fn aggregate_pushdown_is_identical_across_granularities() {
        use pce_graph::generators::MonotoneLayeringConfig;
        let cfg = MonotoneLayeringConfig {
            num_accounts: 150,
            background_edges: 900,
            num_chains: 5,
            num_decoys: 6,
            seed: 777,
            ..MonotoneLayeringConfig::default()
        };
        let predicate = cfg.alert_predicate();
        let window = cfg.chain_span;
        let (g, planted) = generators::monotone_layering(cfg);
        assert!(planted > 0);
        let kind = DeltaKind::Temporal(TemporalCycleOptions::with_window(window));
        let drivers = Drivers::new();
        let pool8 = ThreadPool::new(8);

        let all = CollectingSink::new();
        let pass_all = CyclePredicate::pass_all();
        let seq_plan = plan(kind, Granularity::Sequential, &pass_all);
        run_on(&g, &seq_plan, all_roots(&g), &all, &drivers.pools[0]);
        let expected = post_filtered(&g, all.into_cycles(), &predicate);
        assert_eq!(expected.len(), planted, "only the planted chains survive");

        let seq = CollectingSink::new();
        let seq_plan = plan(kind, Granularity::Sequential, &predicate);
        let seq_stats = run_on(&g, &seq_plan, all_roots(&g), &seq, &drivers.pools[0]);
        assert_eq!(seq.canonical_cycles(), expected);
        assert!(
            seq_stats.work.total_aggregate_prunes() > 0,
            "decoys must be pruned mid-path, not post-filtered"
        );

        // The prune counters are data-deterministic: identical across every
        // driver and thread count.
        for (driver, pool) in drivers.iter().chain([(Granularity::FineGrained, &pool8)]) {
            let sink = CollectingSink::new();
            let stats = run_on(
                &g,
                &plan(kind, driver, &predicate),
                all_roots(&g),
                &sink,
                pool,
            );
            assert_eq!(sink.canonical_cycles(), expected, "{}", label(driver, pool));
            assert_same_work(&seq_stats, &stats);
        }
        // A halting sink stops the fine run after exactly its first cycle.
        let first = FirstKSink::new(1);
        run_on(
            &g,
            &plan(kind, Granularity::FineGrained, &predicate),
            all_roots(&g),
            &first,
            &pool8,
        );
        let halted = crate::testing::canonicalized(first.into_cycles());
        assert_eq!(halted.len(), 1);
        assert!(expected.contains(&halted[0]));
    }
}
